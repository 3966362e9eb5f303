// Benchcompare is the CI perf-regression gate: it diffs the BENCH_M*.json
// files fresh `benchsuite -quick -json` runs produced against the committed
// baselines in bench-baseline/ and fails when the host-ns/guest-instr column
// regresses beyond the tolerance (default 25%). The quick workloads time
// milliseconds of host work, so single samples are noisy; the gate therefore
// accepts several current-run directories and takes the per-row minimum —
// best-of-N is robust to scheduling spikes while a real dispatch regression
// (which inflates every sample) still trips it. Rows are keyed by every
// non-host column — mode, workload, config AND the guest instruction/cycle
// counts, which are byte-identical across runs by the transparency
// contract — so a key mismatch also catches a simulated number silently
// drifting. Baselines refresh with one command:
//
//	go run ./cmd/benchsuite -quick -json bench-baseline $(go run ./cmd/benchsuite -list | awk '$1 ~ /^M/ {print $1}')
//
// Tables without a host-ns/guest-instr column (M2 measures wall-clock
// scale-out, which shared runners cannot gate meaningfully) are skipped.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricColumn is the gated measurement.
const metricColumn = "host ns/instr"

// hostColumns are host-side values excluded from row keys: they vary run to
// run by design.
var hostColumns = map[string]bool{metricColumn: true, "speedup": true}

// table mirrors cmd/benchsuite's jsonResult.
type table struct {
	ID     string     `json:"id"`
	Name   string     `json:"name"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Quick  bool       `json:"quick"`
}

func load(path string) (*table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t table
	if err := json.Unmarshal(buf, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

// metrics extracts key → ns/instr for one table, or nil if the table has no
// gated column. The key joins every non-host cell.
func metrics(t *table) (map[string]float64, error) {
	col := -1
	for i, h := range t.Header {
		if h == metricColumn {
			col = i
		}
	}
	if col < 0 {
		return nil, nil
	}
	out := make(map[string]float64, len(t.Rows))
	for _, row := range t.Rows {
		var key []string
		for i, cell := range row {
			if i < len(t.Header) && !hostColumns[t.Header[i]] {
				key = append(key, cell)
			}
		}
		k := strings.Join(key, " | ")
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return nil, fmt.Errorf("%s row %q: bad %s %q", t.ID, k, metricColumn, row[col])
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("%s: duplicate row key %q", t.ID, k)
		}
		out[k] = v
	}
	return out, nil
}

// summaryRow is one gated comparison, retained for the markdown summary.
type summaryRow struct {
	id, key, status string
	base, cur       float64
}

// writeSummary appends the per-row comparison table as GitHub-flavoured
// markdown — the shape $GITHUB_STEP_SUMMARY renders on the run page. Written
// on failure too, so a red gate shows exactly which row tripped it.
func writeSummary(path string, rows []summaryRow, failed int, tolerance float64) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: summary: %v\n", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "### Perf gate: %s, best-of-N vs baseline (tolerance %.0f%%)\n\n", metricColumn, tolerance*100)
	fmt.Fprintln(f, "| table | row | baseline | current | ratio | status |")
	fmt.Fprintln(f, "|---|---|---:|---:|---:|---|")
	for _, r := range rows {
		status := r.status
		if status == "REGRESSION" {
			status = "**REGRESSION**"
		}
		// Row keys join cells with " | "; escape so they stay one column.
		fmt.Fprintf(f, "| %s | %s | %.1f | %.1f | %.2fx | %s |\n",
			r.id, strings.ReplaceAll(r.key, "|", "\\|"), r.base, r.cur, r.cur/r.base, status)
	}
	if failed > 0 {
		fmt.Fprintf(f, "\n**%d regression(s)/mismatch(es) beyond tolerance.**\n", failed)
	} else {
		fmt.Fprintf(f, "\nAll gated metrics within tolerance.\n")
	}
}

func main() {
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional regression of "+metricColumn)
	summary := flag.String("summary", "", "append a markdown per-row table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-tolerance F] BASELINE_DIR CURRENT_DIR...")
		os.Exit(2)
	}
	baseDir, curDirs := flag.Arg(0), flag.Args()[1:]

	paths, err := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: no BENCH_*.json baselines in %s\n", baseDir)
		os.Exit(2)
	}
	sort.Strings(paths)

	failed := 0
	var sumRows []summaryRow
	for _, basePath := range paths {
		name := filepath.Base(basePath)
		base, err := load(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(2)
		}
		baseM, err := metrics(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			os.Exit(2)
		}
		if baseM == nil {
			fmt.Printf("%-16s skipped (no %q column)\n", base.ID, metricColumn)
			continue
		}
		// Per-row minimum over every current run: best-of-N.
		curM := map[string]float64{}
		bad := false
		for _, curDir := range curDirs {
			cur, err := load(filepath.Join(curDir, name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s: current run missing: %v\n", base.ID, err)
				bad = true
				break
			}
			if cur.Quick != base.Quick {
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s: quick=%v vs baseline quick=%v — not comparable\n",
					base.ID, cur.Quick, base.Quick)
				bad = true
				break
			}
			m, err := metrics(cur)
			if err != nil || m == nil {
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s: unreadable current metrics: %v\n", base.ID, err)
				bad = true
				break
			}
			for k, v := range m {
				if best, ok := curM[k]; !ok || v < best {
					curM[k] = v
				}
			}
		}
		if bad {
			failed++
			continue
		}
		// Rows present only in the current run are a coverage hole, not a
		// pass: a new mode/workload/config row ships with a baseline or the
		// gate is lying about what it checked.
		for k := range curM {
			if _, ok := baseM[k]; !ok {
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s [%s]: row has no baseline — refresh bench-baseline/\n",
					base.ID, k)
				failed++
			}
		}
		keys := make([]string, 0, len(baseM))
		for k := range baseM {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b := baseM[k]
			c, ok := curM[k]
			if !ok {
				// Either the table shape changed or a guest-visible number
				// drifted; both need a reviewed baseline refresh.
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s [%s]: row missing from current run (shape change or guest-number drift)\n",
					base.ID, k)
				failed++
				continue
			}
			ratio := c / b
			status := "ok"
			if c > b*(1+*tolerance) {
				status = "REGRESSION"
				failed++
			}
			sumRows = append(sumRows, summaryRow{id: base.ID, key: k, status: status, base: b, cur: c})
			fmt.Printf("%-4s %-60s %8.1f → %8.1f ns/instr (%.2fx) %s\n",
				base.ID, k, b, c, ratio, status)
		}
	}
	// Tables emitted by the current runs but absent from the baseline dir
	// (a new M-series experiment) must commit a baseline to be gated at all.
	baselined := map[string]bool{}
	for _, p := range paths {
		baselined[filepath.Base(p)] = true
	}
	curOnly := map[string]bool{}
	for _, curDir := range curDirs {
		cps, _ := filepath.Glob(filepath.Join(curDir, "BENCH_*.json"))
		for _, p := range cps {
			if name := filepath.Base(p); !baselined[name] && !curOnly[name] {
				curOnly[name] = true
				fmt.Fprintf(os.Stderr, "benchcompare: FAIL %s: no committed baseline — add it to %s\n", name, baseDir)
				failed++
			}
		}
	}
	if *summary != "" {
		writeSummary(*summary, sumRows, failed, *tolerance)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d regression(s)/mismatch(es) beyond %.0f%% tolerance\n",
			failed, *tolerance*100)
		os.Exit(1)
	}
	fmt.Println("benchcompare: all gated metrics within tolerance")
}
