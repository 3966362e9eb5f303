#!/usr/bin/env bash
# Builds the govisor benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload kernel-exits --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# trace spans, CPU profiles) goes under .bench_build/ at the repository
# root, so nothing is read or written outside the checkout except the Go
# toolchain itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
