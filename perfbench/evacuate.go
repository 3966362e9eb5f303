package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"govisor/internal/core"
	"govisor/internal/faultnet"
	"govisor/internal/guest"
	"govisor/internal/mem"
	"govisor/internal/migrate"
)

// evacuate drains VMs running the Dirty workload to fresh destinations with
// StreamMigrate over net.Pipe: pre-copy and post-copy, over a clean wire
// and under a seeded faultnet schedule. Each destination then runs on for
// a fixed budget. It is the only workload for the migration engine.
var evacuate = &workload{
	name:     "evacuate",
	op:       "StreamMigrate call",
	opMetric: "migration_ms",
	tail:     0.90,
	plan: func(seed uint64) passFunc {
		units := evacUnits(int(newRNG(seed, "evacuate").next() % evacGroup))
		return func(tr *tracer) (*passResult, error) { return evacPass(units, tr) }
	},
	allPlans: func() []passFunc {
		var plans []passFunc
		for rot := 0; rot < evacGroup; rot++ {
			units := evacUnits(rot)
			plans = append(plans, func(tr *tracer) (*passResult, error) { return evacPass(units, tr) })
		}
		return plans
	},
}

const (
	evacRAM        = 2 << 20
	evacThink      = 2_000   // Dirty's think ops between page writes
	evacWarmCycles = 600_000 // source run before the drain (set-up): about one pass over the footprint
	evacResume     = 300_000 // cycles each destination runs after switchover
	postCopyChunk  = 8       // background pages pushed between destination slices
	// evacGroup is the number of units per (algorithm, wire) group; each
	// group runs every footprint and, on a faulted wire, every fault seed.
	evacGroup = 4
)

// Within each group, unit c takes configuration k = (c + rot) mod 4: dirty
// footprint dirtyPages[k] (pages) and, on a faulted wire, fault schedule
// seed faultSeeds[k]; the workload seed draws rot. A seed thus changes every
// unit's inputs, while every pass migrates the same set of configurations —
// a fault schedule's cost depends so much on where its faults land that
// drawing schedules freely would make the pass's latency mix, not the
// simulator, set the spread between seeds.
var (
	dirtyPages = [evacGroup]uint64{32, 48, 64, 80}
	faultSeeds = [evacGroup]int64{1, 2, 3, 6}
)

type evacUnit struct {
	name, key string
	mode      migrate.Mode
	pages     uint64
	faultSeed int64 // 0: clean wire
}

func evacUnits(rot int) []evacUnit {
	var units []evacUnit
	for _, mode := range []migrate.Mode{migrate.PreCopy, migrate.PostCopy} {
		for _, faulted := range []bool{false, true} {
			wire := "clean"
			if faulted {
				wire = "faulted"
			}
			for c := 0; c < evacGroup; c++ {
				u := evacUnit{
					name:  fmt.Sprintf("%v/%s/%d", mode, wire, c),
					mode:  mode,
					pages: dirtyPages[(c+rot)%evacGroup],
				}
				u.key = fmt.Sprintf("%v/%s/pages=%d", mode, wire, u.pages)
				if faulted {
					u.faultSeed = faultSeeds[(c+rot)%evacGroup]
					u.key += fmt.Sprintf("/fault-seed=%d", u.faultSeed)
				}
				units = append(units, u)
			}
		}
	}
	return units
}

func evacPass(units []evacUnit, tr *tracer) (*passResult, error) {
	res := &passResult{}
	res.startSetup()
	t0 := time.Now()
	setupSpan := tr.begin("setup", -1, -1)
	sp := tr.begin("guest.build", setupSpan, -1)
	tb := time.Now()
	kernel, err := guest.BuildKernel()
	res.addHost("guest.build", time.Since(tb))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	type pair struct{ src, dst *core.VM }
	pairs := make([]pair, len(units))
	for i, u := range units {
		pool := mem.NewPool(4 * evacRAM / 4096)
		sp := tr.begin("core.NewVM", setupSpan, i)
		src, err := core.NewVM(pool, core.Config{Name: u.name + "/src", Mode: core.ModeHW, MemBytes: evacRAM})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		dst, err := core.NewVM(pool, core.Config{Name: u.name + "/dst", Mode: core.ModeHW, MemBytes: evacRAM})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		tr.end(sp)
		guest.Dirty(0, u.pages, evacThink).Apply(src)
		sp = tr.begin("vm.Boot", setupSpan, i)
		tb := time.Now()
		err = src.Boot(kernel)
		res.addHost("core.boot", time.Since(tb))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: boot: %w", u.name, err)
		}
		sp = tr.begin("vm.Step", setupSpan, i)
		src.Step(evacWarmCycles)
		tr.end(sp)
		pairs[i] = pair{src, dst}
	}
	tr.end(setupSpan)
	res.setup = time.Since(t0)

	type outcome struct {
		rep        migrate.StreamReport
		err        error
		faults     uint64
		ramSrc     string
		ramDst     string
		startInstr uint64
	}
	outs := make([]outcome, len(units))
	before := res.startTimed()
	runSpan := tr.begin("run", -1, -1)
	t1 := time.Now()
	var checking time.Duration // switchover checks, left out of the timed phase
	for i, u := range units {
		src, dst := pairs[i].src, pairs[i].dst
		o := &outs[i]
		o.startInstr = src.CPU.Instret
		unitSpan := tr.begin("unit", runSpan, i)
		opt := migrate.DefaultStreamOptions()
		opt.Mode = u.mode
		opt.MaxAttempts = 10
		if u.mode == migrate.PostCopy {
			opt.PostCopyPushChunk = postCopyChunk
		}
		var inj *faultnet.Injector
		if u.faultSeed != 0 {
			inj = faultnet.NewInjector(faultnet.Plan{Seed: u.faultSeed, MeanGapBytes: 45_000, MaxFaults: 2})
			opt.Wire = migrate.PipeWire(inj.Wrap)
			opt.DelayCycles = inj.TakeDelayCycles
		}
		sp := tr.begin("migrate.StreamMigrate", unitSpan, i)
		tm := time.Now()
		o.rep, o.err = migrate.StreamMigrate(src, dst, opt)
		took := time.Since(tm)
		tr.end(sp)
		res.ops = append(res.ops, float64(took)/1e6)
		res.sampleHeap()
		res.addHost("migrate", took)
		if inj != nil {
			o.faults = inj.Stats().Total()
		}
		if o.err == nil && u.mode == migrate.PreCopy {
			// Switchover: the paused source and the not yet resumed
			// destination must hold the same RAM. (Post-copy's destination
			// has already run by now; its pages are checked for presence.)
			tc := time.Now()
			pprof.Do(context.Background(), checkLabel, func(context.Context) {
				o.ramSrc, o.ramDst = ramDigest(src.Mem), ramDigest(dst.Mem)
			})
			checking += time.Since(tc)
		}
		if o.err == nil {
			sp := tr.begin("vm.Step", unitSpan, i)
			dst.Step(evacResume)
			res.sampleHeap()
			tr.end(sp)
		}
		tr.end(unitSpan)
	}
	res.run = time.Since(t1) - checking
	tr.end(runSpan)
	res.finishTimed(before)

	for i, u := range units {
		src, dst, o := pairs[i].src, pairs[i].dst, outs[i]
		r := unitResult{name: u.name, key: u.key, counts: vmCounts(dst)}
		r.counts.add(hostSideOnly(vmCounts(src)))
		r.counts["mem.pool_allocs"] = src.Mem.Pool().InUse()
		r.counts["migrate.rounds"] = uint64(len(o.rep.Rounds))
		r.counts["migrate.wire_bytes"] = o.rep.WireBytes
		r.counts["migrate.retries"] = o.rep.Retries
		r.counts["migrate.resumes"] = o.rep.Resumes
		r.counts["migrate.remote_fills"] = o.rep.RemoteFills
		r.counts["migrate.downtime_cycles"] = o.rep.DowntimeCycles
		r.counts["faultnet.faults"] = o.faults
		if o.err == nil {
			// A failed drain's destination never adopted the source's count.
			res.instret += dst.CPU.Instret - o.startInstr
		}
		switch {
		case errors.Is(o.err, migrate.ErrAborted):
			r.fail = fmt.Sprintf("migration aborted: %v", o.err)
		case o.err != nil:
			r.fail = fmt.Sprintf("migration failed: %v", o.err)
		case o.ramSrc != o.ramDst:
			r.fail = "destination RAM differs from the source at switchover"
		case u.mode == migrate.PostCopy && !allLanded(src, dst):
			r.fail = "a present source page never landed on the destination"
		case dst.State != core.StateRunning:
			// Dirty loops forever: a destination that stopped has failed.
			r.fail = fmt.Sprintf("destination stopped: state %v, err %v, halt %#x", dst.State, dst.Err, dst.HaltCode)
		case u.faultSeed != 0 && o.faults == 0:
			r.fail = "the fault schedule injected nothing"
		}
		d := newDigester()
		d.vm(src)
		d.vm(dst)
		rep := o.rep
		d.u(uint64(rep.Mode), rep.TotalCycles, rep.DowntimeCycles, rep.BytesSent, rep.RemoteFills, uint64(len(rep.Rounds)))
		for _, rd := range rep.Rounds {
			d.u(rd.Pages, rd.Cycles)
		}
		r.digest = d.sum()
		res.units = append(res.units, r)
		src.Release()
		dst.Release()
	}
	return res, nil
}

// hostSideOnly keeps a source VM's interpreter telemetry and drops what the
// destination's counters already carry: the destination adopted the
// source's retired-instruction and cycle counts at switchover.
func hostSideOnly(c counters) counters {
	delete(c, "instret")
	delete(c, "cycles")
	return c
}

func allLanded(src, dst *core.VM) bool {
	for gfn := uint64(0); gfn < src.Mem.Pages(); gfn++ {
		if src.Mem.Frame(gfn) != mem.NoFrame && dst.Mem.Frame(gfn) == mem.NoFrame {
			return false
		}
	}
	return true
}
