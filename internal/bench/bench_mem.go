package bench

import (
	"fmt"

	"govisor/internal/balloon"
	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/ksm"
	"govisor/internal/mem"
	"govisor/internal/metrics"
	"govisor/internal/migrate"
)

// F7Migration: total time and downtime vs dirty rate for the three
// algorithms.
func F7Migration() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"algorithm", "dirty load", "total (Mcyc)", "downtime (Mcyc)", "sent (MiB)", "rounds", "converged",
	}}
	loads := []struct {
		name         string
		pages, think uint64
	}{
		{"light (8pg)", 8, 5000},
		{"medium (128pg)", 128, 500},
		{"heavy (512pg)", 512, 0},
	}
	algs := []struct {
		name string
		mode migrate.Mode
	}{
		{"pre-copy", migrate.PreCopy},
		{"stop-and-copy", migrate.StopAndCopy},
		{"post-copy", migrate.PostCopy},
	}
	for _, load := range loads {
		for _, alg := range algs {
			src, dst, err := migrationPair(load.pages, load.think)
			if err != nil {
				return nil, err
			}
			opt := migrate.DefaultStreamOptions()
			opt.Mode = alg.mode
			if alg.mode == migrate.PostCopy {
				opt.PostCopyPushChunk = 256
			}
			rep, err := migrate.StreamMigrate(src, dst, opt)
			if err != nil {
				return nil, err
			}
			t.AddRow(alg.name, load.name,
				fmt.Sprintf("%.2f", float64(rep.TotalCycles)/1e6),
				fmt.Sprintf("%.3f", float64(rep.DowntimeCycles)/1e6),
				fmt.Sprintf("%.1f", float64(rep.BytesSent)/(1<<20)),
				fmt.Sprint(len(rep.Rounds)),
				fmt.Sprint(rep.Converged))
		}
	}
	return t, nil
}

func migrationPair(pages, think uint64) (*core.VM, *core.VM, error) {
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, nil, err
	}
	pool := mem.NewPool(benchPool)
	src, err := core.NewVM(pool, core.Config{Name: "src", Mode: core.ModeHW, MemBytes: benchRAM})
	if err != nil {
		return nil, nil, err
	}
	guest.Dirty(0, pages, think).Apply(src)
	if err := src.Boot(kernel); err != nil {
		return nil, nil, err
	}
	src.Step(10_000_000)
	dst, err := core.NewVM(pool, core.Config{Name: "dst", Mode: core.ModeHW, MemBytes: benchRAM})
	if err != nil {
		return nil, nil, err
	}
	return src, dst, nil
}

// F8PrecopyRounds: pages sent per pre-copy round at two dirty rates.
func F8PrecopyRounds() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{"round", "pages (slow dirtier)", "pages (fast dirtier)"}}
	roundsFor := func(pages, think uint64, maxRounds int) ([]migrate.Round, error) {
		src, dst, err := migrationPair(pages, think)
		if err != nil {
			return nil, err
		}
		opt := migrate.DefaultStreamOptions()
		opt.MaxRounds = maxRounds
		opt.StopThresholdPages = 4
		rep, err := migrate.StreamMigrate(src, dst, opt)
		if err != nil {
			return nil, err
		}
		return rep.Rounds, nil
	}
	slow, err := roundsFor(96, 2000, 10)
	if err != nil {
		return nil, err
	}
	fast, err := roundsFor(512, 0, 10)
	if err != nil {
		return nil, err
	}
	n := len(slow)
	if len(fast) > n {
		n = len(fast)
	}
	for i := 0; i < n; i++ {
		s, f := "-", "-"
		if i < len(slow) {
			s = fmt.Sprint(slow[i].Pages)
		}
		if i < len(fast) {
			f = fmt.Sprint(fast[i].Pages)
		}
		t.AddRow(fmt.Sprint(i), s, f)
	}
	return t, nil
}

// A3PrecopyBounds: ablation — downtime/total vs MaxRounds for a hot guest.
func A3PrecopyBounds() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{"max rounds", "total (Mcyc)", "downtime (Mcyc)", "sent (MiB)"}}
	for _, rounds := range []int{1, 3, 5, 10, 20} {
		src, dst, err := migrationPair(256, 100)
		if err != nil {
			return nil, err
		}
		opt := migrate.DefaultStreamOptions()
		opt.MaxRounds = rounds
		opt.StopThresholdPages = 8
		rep, err := migrate.StreamMigrate(src, dst, opt)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(rounds),
			fmt.Sprintf("%.2f", float64(rep.TotalCycles)/1e6),
			fmt.Sprintf("%.3f", float64(rep.DowntimeCycles)/1e6),
			fmt.Sprintf("%.1f", float64(rep.BytesSent)/(1<<20)))
	}
	return t, nil
}

// F9Dedup: host frames saved by page sharing vs number of identical VMs.
func F9Dedup() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"VMs", "frames before", "frames after", "saved", "saved/VM", "bytes hashed (KiB)",
	}}
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	for _, n := range []int{2, 4, 8, 16} {
		pool := mem.NewPool(uint64(n+2) * (benchRAM >> isa.PageShift))
		var spaces []*mem.GuestPhys
		for i := 0; i < n; i++ {
			vm, err := core.NewVM(pool, core.Config{
				Name: fmt.Sprintf("vm%d", i), Mode: core.ModeHW, MemBytes: benchRAM,
			})
			if err != nil {
				return nil, err
			}
			guest.MemTouch(1, 64, 0).Apply(vm)
			if err := vm.Boot(kernel); err != nil {
				return nil, err
			}
			if st := vm.RunToHalt(benchBudget); st != core.StateHalted {
				return nil, fmt.Errorf("bench: dedup guest %d ended %v", i, st)
			}
			spaces = append(spaces, vm.Mem)
		}
		before := pool.InUse()
		sc := ksm.NewScanner(pool)
		sc.ScanAll(spaces)
		after := pool.InUse()
		t.AddRow(fmt.Sprint(n), fmt.Sprint(before), fmt.Sprint(after),
			fmt.Sprint(before-after),
			fmt.Sprintf("%.1f", float64(before-after)/float64(n)),
			fmt.Sprint(sc.Stats.HashBytes/1024))
	}
	return t, nil
}

// T10Balloon: throughput under memory overcommit with balloon reclaim.
func T10Balloon() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"overcommit", "host frames", "guest work", "swap-ins", "slowdown",
	}}
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	const wsPages = 900
	var baseline float64
	// Sweep the host pool from generous to starved relative to the guest's
	// roughly 1000-page footprint (workload + kernel + tables).
	for _, frames := range []uint64{2048, 1100, 1000, 900, 800} {
		pool := mem.NewPool(frames)
		vm, err := core.NewVM(pool, core.Config{Name: "oc", Mode: core.ModeHW, MemBytes: benchRAM})
		if err != nil {
			return nil, err
		}
		swap := balloon.NewSwapper()
		ctl := &balloon.Controller{Policy: balloon.DefaultPolicy(), Pool: pool,
			Spaces: []*mem.GuestPhys{vm.Mem}, Swap: swap}
		vm.ReclaimHook = func() bool { return ctl.ReclaimOne() }
		source := swap.Source(vm.Mem)
		vm.PageSource = func(gfn uint64) ([]byte, bool) {
			page, ok := source(gfn)
			if ok {
				// Swap-in pays an SSD-class latency (~20 µs).
				vm.CPU.AddCycles(20_000)
			}
			return page, ok
		}
		guest.MemTouch(6, wsPages, 20).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		if st := vm.RunToHalt(benchBudget); st != core.StateHalted {
			return nil, fmt.Errorf("bench: balloon guest ended %v (%v)", st, vm.Err)
		}
		cyc := float64(region(vm))
		if baseline == 0 {
			baseline = cyc
		}
		ratio := float64(wsPages+100) / float64(frames)
		t.AddRow(fmt.Sprintf("%.2fx", ratio), fmt.Sprint(frames),
			fmt.Sprintf("%.0f Mcyc", cyc/1e6),
			fmt.Sprint(swap.SwapIns),
			fmt.Sprintf("%.2fx", cyc/baseline))
	}
	return t, nil
}

// T14Provision: snapshot/restore and clone latency vs guest size, measured
// in pages copied (the deterministic cost driver).
func T14Provision() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"guest footprint (pages)", "snapshot bytes", "restore fills", "clone page copies",
	}}
	kernel, err := guest.BuildKernel()
	if err != nil {
		return nil, err
	}
	for _, ws := range []uint64{64, 256, 1024} {
		pool := mem.NewPool(benchPool)
		vm, err := core.NewVM(pool, core.Config{Name: "p", Mode: core.ModeHW, MemBytes: benchRAM})
		if err != nil {
			return nil, err
		}
		guest.MemTouch(1, ws, 100).Apply(vm)
		if err := vm.Boot(kernel); err != nil {
			return nil, err
		}
		if st := vm.RunToHalt(benchBudget); st != core.StateHalted {
			return nil, fmt.Errorf("bench: provision guest ended %v", st)
		}
		vm.Pause()

		var buf countWriter
		if err := saveSnapshot(vm, &buf); err != nil {
			return nil, err
		}
		// Clone: frames copied up-front is always zero (COW); record the
		// present set as what a full copy would have moved.
		clone, err := core.NewVM(pool, core.Config{Name: "c", Mode: core.ModeHW, MemBytes: benchRAM})
		if err != nil {
			return nil, err
		}
		inUse := pool.InUse()
		if err := cloneVM(vm, clone); err != nil {
			return nil, err
		}
		copies := pool.InUse() - inUse

		t.AddRow(fmt.Sprint(vm.Mem.Present()),
			fmt.Sprint(buf.n),
			fmt.Sprint(vm.Mem.Present()), // restore populates this many
			fmt.Sprint(copies))
	}
	return t, nil
}

// F15 depends only on the storage layer; see bench_storage.go.

// gabi import is used by runKernel error paths.
var _ = gabi.PResult0
