// Command perfbench is govisor's end-to-end benchmark. It drives the
// simulator through the public functions of its layers on one of four
// workloads, checks every unit of work against a committed digest and
// against the process's own warm-up pass, and prints host-time metrics.
//
//	perfbench --workload kernel-exits --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run, which also writes its spans and CPU profile under
// --out. Every number named *_ms, *_s, *mips* or *_ns* is host time;
// cycles, instructions and counts are simulated or deterministic. The
// rationale for the workloads and metrics is in RATIONALE.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"govisor/internal/vcpu"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kernel-exits, guest-streams, fleet-io or evacuate")
	seed := fs.Uint64("seed", 1, "workload seed; every unit's inputs derive from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in host seconds")
	traceOn := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's spans and CPU profile")
	writeDigests := fs.String("write-digests", "", "run every unit configuration once, write their digests to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests != "" {
		if err := writeReference(*writeDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := lookupWorkload(*name)
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &runner{w: w, ref: ref[w.name], stderr: stderr}
	if err := r.measure(w.plan(*seed), *seconds, *traceOn == 1, *out, *seed); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := r.report(stdout, *traceOn == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runner measures one workload in one process.
type runner struct {
	w      *workload
	ref    map[string]string
	stderr io.Writer

	warm      *passResult
	passes    []*passResult
	attempted int
	failed    int
	shares    map[string]float64
}

// measure runs the untimed warm-up pass, then timed passes until seconds
// have elapsed. In a traced run every other pass is traced, and the CPU
// profile covers the timed phase of every timed pass.
func (r *runner) measure(pass passFunc, seconds float64, traced bool, out string, seed uint64) error {
	// The warm-up fills the host caches and finishes lazy set-up, and it is
	// the reference every timed pass must reproduce exactly.
	warm, err := pass(nil)
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	r.warm = warm

	var tr *tracer
	if traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		base := filepath.Join(out, fmt.Sprintf("%s-seed%d", r.w.name, seed))
		profiler = &cpuProfile{dir: base + ".cpu"}
		// A shorter run with the same seed must not leave an earlier run's
		// profiles beside its own.
		if err := os.RemoveAll(profiler.dir); err != nil {
			return err
		}
		if err := os.Mkdir(profiler.dir, 0o755); err != nil {
			return err
		}
		defer profiler.stop() // covers error returns; a no-op after a finished pass
		tr = newTracer()
		defer func() {
			if err := tr.write(base + ".spans.json"); err != nil {
				fmt.Fprintln(r.stderr, "perfbench: writing spans:", err)
			}
		}()
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		var ptr *tracer
		if traced && i%2 == 1 {
			ptr = tr
		}
		res, err := pass(ptr)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		res.traced = ptr != nil
		r.check(res)
		r.passes = append(r.passes, res)
	}
	if traced {
		if profiler.err != nil {
			return profiler.err
		}
		if r.shares, err = profiler.cpuShares(); err != nil {
			return err
		}
	}
	return nil
}

// check counts a timed pass's units and fails each one whose own checks
// failed, whose digest differs from the committed one for its
// configuration, or whose digest or deterministic counters differ from the
// warm-up pass.
func (r *runner) check(res *passResult) {
	for i, u := range res.units {
		r.attempted++
		why := u.fail
		if why == "" {
			switch want, ok := r.ref[u.key]; {
			case !ok:
				why = "no committed digest for configuration " + u.key
			case u.digest != want:
				why = fmt.Sprintf("digest %s, committed %s", u.digest, want)
			case i >= len(r.warm.units) || u.digest != r.warm.units[i].digest:
				why = "digest differs from the warm-up pass"
			case !reflect.DeepEqual(u.counts, r.warm.units[i].counts):
				why = "deterministic counters differ from the warm-up pass: " + diffCounts(r.warm.units[i].counts, u.counts)
			}
		}
		if why != "" {
			r.failed++
			if r.failed <= 10 {
				fmt.Fprintf(r.stderr, "perfbench: unit %s (%s) failed: %s\n", u.name, u.key, why)
			}
		}
	}
}

func diffCounts(a, b counters) string {
	var d []string
	for k, v := range a {
		if b[k] != v {
			d = append(d, fmt.Sprintf("%s %d→%d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			d = append(d, fmt.Sprintf("%s new %d", k, v))
		}
	}
	sort.Strings(d)
	return strings.Join(d, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a human-readable summary, then the JSON result line.
func (r *runner) report(stdout io.Writer, traced bool) error {
	var plain []*passResult
	for _, p := range r.passes {
		if !p.traced {
			plain = append(plain, p)
		}
	}
	e2e := r.endToEnd(plain)
	m := e2e
	if traced {
		m = r.perLayer(plain)
	}
	r.summary(stdout, plain, e2e, traced)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func mips(p *passResult) float64 { return float64(p.instret) / p.run.Seconds() / 1e6 }

// endToEnd computes the metrics a user of the simulator sees, from the
// untraced passes.
func (r *runner) endToEnd(ps []*passResult) map[string]metric {
	var rates, setups, ops, heaps []float64
	for _, p := range ps {
		rates = append(rates, mips(p))
		setups = append(setups, p.setup.Seconds())
		ops = append(ops, p.ops...)
		heaps = append(heaps, float64(p.heap-min(p.heapBase, p.heap))/(1<<20))
	}
	return map[string]metric{
		"guest_mips":    {median(rates), "MIPS"},
		"op_ms_p50":     {quantile(ops, 0.5), "ms"},
		"op_ms_tail":    {quantile(ops, r.w.tail), "ms"},
		"setup_s":       {median(setups), "s"},
		"heap_peak_mib": {median(heaps), "MiB"},
	}
}

// perLayer computes the traced run's per-layer metrics: deterministic
// counters from the warm-up pass (every timed pass repeated them exactly),
// runtime figures from the untraced passes, and host-time splits from the
// traced passes.
func (r *runner) perLayer(plain []*passResult) map[string]metric {
	c := r.warm.counts()
	kinstr := c.f("instret") / 1000
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("vcpu.icache_hit_ratio", ratio(c.f("icache.hits"), c.f("icache.hits")+c.f("icache.misses")+c.f("icache.invalidations")), "ratio")
	set("vcpu.chain_hit_ratio", ratio(c.f("chain.hits"), c.f("chain.hits")+c.f("chain.misses")), "ratio")
	set("vcpu.trace_entries_per_formation", ratio(c.f("trace.entries"), c.f("trace.formations")), "ratio")
	set("vcpu.trace_demotions_per_entry", ratio(c.f("trace.demotions"), c.f("trace.entries")), "ratio")
	set("vcpu.crossings_per_kinstr", ratio(c.f("crossings"), kinstr), "1/kinstr")
	for reason := 1; reason < vcpu.NumExitReasons; reason++ {
		n := vcpu.ExitReason(reason).String()
		set("vcpu.exits_per_kinstr."+n, ratio(c.f("exits."+n), kinstr), "1/kinstr")
	}

	var allocs, bytes, gcs, pauses []float64
	for _, p := range plain {
		k := float64(p.instret) / 1000
		allocs = append(allocs, ratio(float64(p.rt.mallocs), k))
		bytes = append(bytes, ratio(float64(p.rt.bytes), k))
		gcs = append(gcs, float64(p.rt.gcs))
		pauses = append(pauses, float64(p.rt.pauseNs)/1e6)
	}
	set("runtime.allocs_per_kinstr", median(allocs), "1/kinstr")
	set("runtime.alloc_bytes_per_kinstr", median(bytes), "B/kinstr")
	set("runtime.gc_cycles", median(gcs), "count")
	set("runtime.gc_pause_ms", median(pauses), "ms")

	set("tlb.hit_ratio", ratio(c.f("tlb.hits"), c.f("tlb.hits")+c.f("tlb.misses")), "ratio")
	set("mmu.walks_per_kinstr", ratio(c.f("mmu.walks"), kinstr), "1/kinstr")
	set("mmu.nested_refs_per_walk", ratio(c.f("mmu.nested_refs"), c.f("mmu.walks")), "ratio")
	set("mmu.shadow_fills", c.f("mmu.shadow_fills"), "count")
	set("mmu.pt_write_traps", c.f("mmu.pt_write_traps"), "count")

	set("mem.wmemo_hit_ratio", ratio(c.f("mem.wmemo_hits"), c.f("mem.wmemo_hits")+c.f("mem.wmemo_fills")), "ratio")
	set("mem.demand_fills", c.f("mem.demand_fills"), "count")
	set("mem.dirty_sets", c.f("mem.dirty_sets"), "count")
	set("mem.pool_allocs", c.f("mem.pool_allocs"), "count")

	set("core.step_calls", c.f("core.step_calls"), "count")
	set("core.hypercalls_per_kinstr", ratio(c.f("core.hypercalls"), kinstr), "1/kinstr")
	set("core.pt_write_emuls", c.f("core.pt_write_emuls"), "count")
	set("core.mmio_exits", c.f("core.mmio_exits"), "count")
	set("core.epochs", c.f("core.epochs"), "count")

	var traced []*passResult
	for _, p := range r.passes {
		if p.traced {
			traced = append(traced, p)
		}
	}
	samples := func(name string) []float64 {
		var all []float64
		for _, p := range traced {
			all = append(all, p.samples[name]...)
		}
		return all
	}
	for _, n := range []string{"core.epoch_lease_ms", "core.epoch_execute_ms", "core.epoch_barrier_ms"} {
		set(n, median(samples(n)), "ms")
	}
	set("sched.calls_per_epoch", median(samples("sched.calls_per_epoch")), "count")
	set("sched.ns_per_call", median(samples("sched.ns_per_call")), "ns")

	set("vnet.forwarded", c.f("vnet.forwarded"), "count")
	set("vnet.flooded", c.f("vnet.flooded"), "count")
	set("vnet.dropped", c.f("vnet.dropped"), "count")
	set("vnet.frames_per_epoch", ratio(c.f("vnet.forwarded"), c.f("core.epochs")), "ratio")
	for _, n := range []string{"tx_frames", "rx_frames", "rx_dropped", "notifies", "irqs"} {
		set("virtio."+n, c.f("virtio."+n), "count")
	}

	set("migrate.rounds", c.f("migrate.rounds"), "count")
	set("migrate.wire_bytes", c.f("migrate.wire_bytes"), "B")
	set("migrate.retries", c.f("migrate.retries"), "count")
	set("migrate.resumes", c.f("migrate.resumes"), "count")
	set("migrate.remote_fills", c.f("migrate.remote_fills"), "count")
	set("migrate.downtime_kcyc", c.f("migrate.downtime_cycles")/1000, "kcycles")
	set("faultnet.faults", c.f("faultnet.faults"), "count")

	var build, boot []float64
	for _, p := range plain {
		build = append(build, p.hostMs["guest.build"])
		boot = append(boot, p.hostMs["core.boot"])
	}
	set("guest.build_ms", median(build), "ms")
	set("core.boot_ms", median(boot), "ms")

	for _, g := range append(cpuGroups, "other") {
		set("cpu_share."+g, r.shares[g], "ratio")
	}

	var tm, pm []float64
	for _, p := range traced {
		tm = append(tm, mips(p))
	}
	for _, p := range plain {
		pm = append(pm, mips(p))
	}
	set("trace.overhead_frac", 1-ratio(median(tm), median(pm)), "ratio")
	return m
}

// summary prints the run in human-readable form, under the metric names
// of each workload's own operation, plus failed_frac.
func (r *runner) summary(w io.Writer, plain []*passResult, e2e map[string]metric, traced bool) {
	var ops []float64
	var wire, migMs float64
	for _, p := range plain {
		ops = append(ops, p.ops...)
		wire += float64(p.counts()["migrate.wire_bytes"])
		migMs += p.hostMs["migrate"]
	}
	fmt.Fprintf(w, "# workload %s: %d timed passes (%d traced), %d units attempted, %d failed, failed_frac %g\n",
		r.w.name, len(r.passes), len(r.passes)-len(plain), r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	fmt.Fprintf(w, "# op = %s; %d samples in the untraced passes\n", r.w.op, len(ops))
	alias := map[string]string{
		"op_ms_p50":  r.w.opMetric + "_p50",
		"op_ms_tail": fmt.Sprintf("%s_p%.0f", r.w.opMetric, r.w.tail*100),
	}
	for _, n := range []string{"guest_mips", "op_ms_p50", "op_ms_tail", "setup_s", "heap_peak_mib"} {
		label := n
		if a, ok := alias[n]; ok {
			label = fmt.Sprintf("%s (%s)", a, n)
		}
		fmt.Fprintf(w, "#   %-32s %12.4f %s\n", label, e2e[n].Value, e2e[n].Unit)
	}
	if r.w.name == "evacuate" {
		fmt.Fprintf(w, "#   %-32s %12.4f MiB/s\n", "migrate_mib_per_s", ratio(wire/(1<<20), migMs/1000))
	}
	if traced {
		fmt.Fprintln(w, "# traced run: per-layer metrics below; spans and CPU profile under --out")
	}
}
