package bench

import (
	"fmt"
	"time"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/metrics"
	"govisor/internal/vcpu"
)

// The engine-tier microbenchmarks (M1, M3, M6, M8) time the simulator, not
// the simulated machine: one guest runs at a reference tier and at a faster
// tier (vcpu.Engine), guest cycles and retired instructions must be
// byte-identical across the two, and host nanoseconds per guest instruction
// drop. Only the RunToHalt phase is timed — guest assembly, VM construction
// and boot are excluded — after a warm-up run per tier.

// tierRun is one timed run of a guest at one tier.
type tierRun struct {
	vm     *core.VM
	hostNs float64
}

// tierPair warms, then times, one guest at tiers ref and fast; boot returns
// a booted VM at the given tier. The transparency property is enforced at
// benchmark time: the pair fails unless guest cycles and instret match (the
// differential suites in internal/guest prove every other guest-visible
// number too).
func tierPair(label string, ref, fast vcpu.Engine, boot func(vcpu.Engine) (*core.VM, error)) (r, f tierRun, err error) {
	run := func(e vcpu.Engine) (tierRun, error) {
		vm, err := boot(e)
		if err != nil {
			return tierRun{}, err
		}
		start := time.Now()
		st := vm.RunToHalt(benchBudget)
		elapsed := float64(time.Since(start).Nanoseconds())
		if st != core.StateHalted || vm.HaltCode != 0 {
			return tierRun{}, fmt.Errorf("bench: %s at %v: guest ended %v halt %#x cause %d",
				label, e, st, vm.HaltCode, vm.Result(gabi.PResult3))
		}
		return tierRun{vm, elapsed}, nil
	}
	// Warm both tiers so neither measurement pays first-run allocator and
	// host-cache effects.
	for _, e := range []vcpu.Engine{ref, fast} {
		if _, err := run(e); err != nil {
			return r, f, err
		}
	}
	if r, err = run(ref); err != nil {
		return r, f, err
	}
	if f, err = run(fast); err != nil {
		return r, f, err
	}
	rc, fc := r.vm.CPU, f.vm.CPU
	if rc.Cycles != fc.Cycles || rc.Instret != fc.Instret {
		return r, f, fmt.Errorf("bench: %s: %v is not invisible: %v (cyc=%d ret=%d) vs %v (cyc=%d ret=%d)",
			label, fast, fast, fc.Cycles, fc.Instret, ref, rc.Cycles, rc.Instret)
	}
	return r, f, nil
}

// M1ICache: the decoded-instruction cache tier (EngineCached) against the
// oracle interpreter, on the F3 privileged-density hot loop. Superblocks
// stay off (the cached tier stops below them), so M1 remains the baseline
// M3 measures the block layers against.
func M1ICache() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"mode", "config", "guest instrs", "guest cycles", "host ns/instr", "speedup", "hit rate",
	}}

	// The F3 hot loop: ALU work with one privileged CSR op per 50
	// instructions, sized up so host timing dominates noise.
	w := guest.Compute(scaled(20000), 50)

	for _, mode := range []core.Mode{core.ModeNative, core.ModeTrap} {
		ref, on, err := tierPair("M1 "+mode.String(), vcpu.EngineOracle, vcpu.EngineCached,
			func(e vcpu.Engine) (*core.VM, error) {
				kernel, err := guest.BuildKernel()
				if err != nil {
					return nil, err
				}
				vm, err := newVM(mode, func(c *core.Config) { c.Engine = e })
				if err != nil {
					return nil, err
				}
				w.Apply(vm)
				return vm, vm.Boot(kernel)
			})
		if err != nil {
			return nil, err
		}
		instrs := float64(on.vm.CPU.Instret)
		nsOff := ref.hostNs / instrs
		nsOn := on.hostNs / instrs
		ic := on.vm.CPU.ICache
		t.AddRow(mode.String(), "oracle", fmt.Sprintf("%.0f", instrs),
			fmt.Sprint(ref.vm.CPU.Cycles), fmt.Sprintf("%.1f", nsOff), "1.00x", "-")
		t.AddRow(mode.String(), "block cache", fmt.Sprintf("%.0f", instrs),
			fmt.Sprint(on.vm.CPU.Cycles), fmt.Sprintf("%.1f", nsOn),
			fmt.Sprintf("%.2fx", nsOff/nsOn),
			fmt.Sprintf("%.4f (%s)", ic.HitRate(), ic.Counters()))
	}
	return t, nil
}

// stream is one stream guest of an engine-tier benchmark.
type stream struct {
	kind   guest.StreamKind
	iters  uint64
	unroll uint64
}

// tierStreams runs each stream guest in native and hw mode (paging on) at
// tiers ref and fast and appends a reference row labelled refCfg and a fast
// row labelled fastCfg per (mode, stream). When extra is non-nil it renders
// one more column from the fast run's VM ("-" on the reference row).
func tierStreams(t *metrics.Table, id string, streams []stream, ref, fast vcpu.Engine,
	refCfg, fastCfg string, extra func(*core.VM) string) error {
	for _, mode := range []core.Mode{core.ModeNative, core.ModeHW} {
		for _, s := range streams {
			img, err := guest.BuildStreamProgram(s.kind, s.iters, s.unroll)
			if err != nil {
				return err
			}
			r, f, err := tierPair(fmt.Sprintf("%s %v/%v", id, mode, s.kind), ref, fast,
				func(e vcpu.Engine) (*core.VM, error) {
					vm, err := newVM(mode, func(c *core.Config) { c.Engine = e })
					if err != nil {
						return nil, err
					}
					return vm, vm.Boot(img)
				})
			if err != nil {
				return err
			}
			instrs := float64(f.vm.CPU.Instret)
			nsRef := r.hostNs / instrs
			nsFast := f.hostNs / instrs
			refRow := []string{mode.String(), s.kind.String(), refCfg, fmt.Sprintf("%.0f", instrs),
				fmt.Sprint(r.vm.CPU.Cycles), fmt.Sprintf("%.1f", nsRef), "1.00x"}
			fastRow := []string{mode.String(), s.kind.String(), fastCfg, fmt.Sprintf("%.0f", instrs),
				fmt.Sprint(f.vm.CPU.Cycles), fmt.Sprintf("%.1f", nsFast), fmt.Sprintf("%.2fx", nsRef/nsFast)}
			if extra != nil {
				refRow = append(refRow, "-")
				fastRow = append(fastRow, extra(f.vm))
			}
			t.AddRow(refRow...)
			t.AddRow(fastRow...)
		}
	}
	return nil
}

// M3Superblocks: the full stack (EngineTraced) against the cached tier, on
// the block layers' target shape — loops with long unrolled straight-line
// bodies (pure ALU, and a page-local memory copy that also exercises the
// data-translation fast path).
func M3Superblocks() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"mode", "workload", "config", "guest instrs", "guest cycles", "host ns/instr", "speedup",
	}}
	streams := []stream{
		{guest.StreamALU, scaled(30000), 512},
		{guest.StreamCopy, scaled(20000), 512},
	}
	err := tierStreams(t, "M3", streams, vcpu.EngineCached, vcpu.EngineTraced, "per-instr", "superblocks", nil)
	return t, err
}

// M6BlockChain: the chained tier against the blocks tier, isolating
// cross-page superblock continuation and block chaining. The workloads are
// the layer's target shapes: an unrolled ALU body longer than a code page
// (every iteration's block run crosses page boundaries mid-run) and a short
// loop parked across a boundary (the blocks tier pays a full fetch
// translation and icache lookup at the boundary and the back edge of every
// iteration). The chained rows report the chain-cache counters, which are
// deterministic in a serial run.
func M6BlockChain() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"mode", "workload", "config", "guest instrs", "guest cycles", "host ns/instr", "speedup", "chain",
	}}
	streams := []stream{
		{guest.StreamXPageALU, scaled(8000), 2200},
		{guest.StreamXPageLoop, scaled(900000), 12},
	}
	err := tierStreams(t, "M6", streams, vcpu.EngineBlocks, vcpu.EngineChained, "reference", "chained",
		func(vm *core.VM) string {
			ic := vm.CPU.ICache.Stats
			return fmt.Sprintf("%d hits / %d crossings", ic.ChainHits, ic.Crossings)
		})
	return t, err
}

// M8HotTraces: the traced tier against the chained tier, isolating hot-trace
// formation. The workloads are the layer's target shapes: the short loop
// parked across a page boundary (a closed-loop trace iterates inside the
// engine, paying the outer fetch loop once per pass instead of twice per
// iteration), the page-crossing unrolled ALU body, and the in-page ALU
// stream as a floor check. The traced rows report the trace telemetry
// (formations / entries / demotions), which is deterministic in a serial
// run.
func M8HotTraces() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"mode", "workload", "config", "guest instrs", "guest cycles", "host ns/instr", "speedup", "traces",
	}}
	streams := []stream{
		{guest.StreamXPageLoop, scaled(900000), 12},
		{guest.StreamXPageALU, scaled(8000), 2200},
		{guest.StreamALU, scaled(30000), 512},
	}
	err := tierStreams(t, "M8", streams, vcpu.EngineChained, vcpu.EngineTraced, "reference", "traced",
		func(vm *core.VM) string {
			ic := vm.CPU.ICache.Stats
			return fmt.Sprintf("%d formed / %d entries / %d demotions", ic.TraceFormations, ic.TraceEntries, ic.TraceDemotions)
		})
	return t, err
}
