package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/mem"
	"govisor/internal/vcpu"
)

// quantum is the guest time one vm.Step call runs: 1 M cycles, 1 ms of
// simulated time, the host's default scheduling quantum.
const quantum = core.DefaultQuantum

// maxSteps is the runaway guard of a serial unit: 20 G cycles.
const maxSteps = 20_000

// vmRAM is the guest RAM of every serial and fleet VM.
const vmRAM = 8 << 20

// workload is one named traffic mix. plan derives a pass from the seed;
// allPlans enumerates passes that together cover every unit configuration
// any seed can select (for the committed digests).
type workload struct {
	name string
	// op is what one latency sample of op_ms_* times, and opMetric the
	// name the summary gives those samples.
	op, opMetric string
	// tail is the quantile op_ms_tail reports: p99 where a run of the
	// default length has thousands of operations, p90 where it has hundreds
	// (epochs, migrations), keeping tens of samples beyond it.
	tail     float64
	plan     func(seed uint64) passFunc
	allPlans func() []passFunc
}

// passFunc runs one pass: set up every unit, run them, check them, tear
// them down. tr is nil in an untraced pass.
type passFunc func(tr *tracer) (*passResult, error)

var workloads = []*workload{kernelExits, guestStreams, fleetIO, evacuate}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passResult is what one pass measured and produced.
type passResult struct {
	traced  bool
	setup   time.Duration // image assembly, VM creation, attach, boot, warm-up
	run     time.Duration // the timed phase
	instret uint64        // guest instructions retired in the timed phase
	ops     []float64     // host ms per operation (step, epoch or migration)
	units   []unitResult
	rt      memSnap // Go runtime work in the timed phase
	// Heap bytes in use before set-up (the benchmark's own bookkeeping) and
	// at the peak of the timed phase, sampled after every operation.
	heapBase, heap uint64
	// Workload-specific host timings, in ms (summed per pass), and the
	// samples behind per-layer latency figures.
	hostMs  map[string]float64
	samples map[string][]float64
}

// unitResult is one checked unit of work: a guest run to halt, a fleet VM,
// or one migration.
type unitResult struct {
	name   string
	key    string // the unit's full configuration; keys the committed digest
	digest string
	counts counters
	fail   string // why the unit failed; empty when it passed its checks
}

func (p *passResult) counts() counters {
	c := counters{}
	for _, u := range p.units {
		c.add(u.counts)
	}
	return c
}

func (p *passResult) addHost(name string, d time.Duration) {
	if p.hostMs == nil {
		p.hostMs = map[string]float64{}
	}
	p.hostMs[name] += float64(d) / 1e6
}

func (p *passResult) addSample(name string, v float64) {
	if p.samples == nil {
		p.samples = map[string][]float64{}
	}
	p.samples[name] = append(p.samples[name], v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// rng is splitmix64: a fixed, version-independent stream, so a seed maps to
// the same inputs on every Go release.
type rng struct{ s uint64 }

// newRNG derives an independent stream per unit from the workload seed, so
// adding or reordering units never shifts another unit's inputs.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var allModes = []core.Mode{core.ModeNative, core.ModeTrap, core.ModePara, core.ModeHW}

// vmCounts reads one VM's deterministic per-layer counters: simulated
// statistics plus the interpreter's host-side telemetry, which repeats
// exactly in a serial run and under RunParallel alike (each VM's caches
// are touched only by the worker holding its lease).
func vmCounts(vm *core.VM) counters {
	c := counters{
		"instret": vm.CPU.Instret,
		"cycles":  vm.CPU.Cycles,
	}
	if ic := vm.CPU.ICache; ic != nil {
		s := ic.Stats
		c["icache.hits"] = s.Hits
		c["icache.misses"] = s.Misses
		c["icache.invalidations"] = s.Invalidations
		c["chain.hits"] = s.ChainHits
		c["chain.misses"] = s.ChainMisses
		c["crossings"] = s.Crossings
		c["trace.formations"] = s.TraceFormations
		c["trace.entries"] = s.TraceEntries
		c["trace.demotions"] = s.TraceDemotions
	}
	for r := 1; r < vcpu.NumExitReasons; r++ {
		c["exits."+vcpu.ExitReason(r).String()] = vm.CPU.Stats.Exits[r]
	}
	t := vm.MMUCtx.TLB.Stats
	c["tlb.hits"], c["tlb.misses"] = t.Hits, t.Misses
	m := vm.MMUCtx.Stats
	c["mmu.walks"], c["mmu.nested_refs"] = m.Walks, m.NestedRefs
	if sh := vm.MMUCtx.Shadow; sh != nil {
		c["mmu.pt_write_traps"] = sh.Stats.PTWriteTraps
	}
	s := vm.Stats
	c["mmu.shadow_fills"] = s.ShadowFills
	c["core.hypercalls"] = s.Hypercalls
	c["core.pt_write_emuls"] = s.PTWriteEmuls
	c["core.mmio_exits"] = s.MMIOExits
	g := vm.Mem
	c["mem.wmemo_hits"], c["mem.wmemo_fills"] = g.WMemoHits, g.WMemoFills
	c["mem.demand_fills"], c["mem.dirty_sets"] = g.DemandFills, g.DirtySets
	return c
}

// startSetup collects garbage before a pass's set-up, outside every timer,
// and records the heap the process holds then.
func (p *passResult) startSetup() {
	runtime.GC()
	p.heapBase = heapInUse()
}

// startTimed collects garbage and snapshots the runtime outside every
// timer, so each timed phase starts from a clean heap, and starts the
// traced run's CPU profile.
func (p *passResult) startTimed() memSnap {
	runtime.GC()
	before := readMem()
	p.sampleHeap()
	profiler.start()
	return before
}

// finishTimed stops the CPU profile and records the runtime work of a
// timed phase that began at snapshot before.
func (p *passResult) finishTimed(before memSnap) {
	profiler.stop()
	p.sampleHeap()
	p.rt = readMem().since(before)
}

// sampleHeap raises the pass's heap peak to the heap in use now. The timed
// phase calls it after every operation, so memory allocated and dropped
// within the phase shows until the collector frees it.
func (p *passResult) sampleHeap() {
	if h := heapInUse(); h > p.heap {
		p.heap = h
	}
}

// ---- serial workloads: kernel-exits and guest-streams ----

// serialUnit is one guest run to halt, one VM at a time, in 1 M-cycle
// vm.Step quanta.
type serialUnit struct {
	name, key string
	mode      core.Mode
	// image assembles the guest; units of one pass that share an image
	// share the call (the universal kernel is assembled once per pass).
	image func() ([]byte, error)
	imgID string
	apply func(vm *core.VM)
}

// serialPass sets up every unit (the set-up phase), then runs them one
// after another in a closed loop, timing every vm.Step (the timed phase).
func serialPass(units []serialUnit, tr *tracer) (*passResult, error) {
	res := &passResult{}
	res.startSetup()
	t0 := time.Now()
	setupSpan := tr.begin("setup", -1, -1)
	images := map[string][]byte{}
	vms := make([]*core.VM, len(units))
	for i, u := range units {
		img, ok := images[u.imgID]
		if !ok {
			sp := tr.begin("guest.build", setupSpan, i)
			tb := time.Now()
			var err error
			img, err = u.image()
			if err != nil {
				return nil, fmt.Errorf("%s: assembling guest: %w", u.name, err)
			}
			res.addHost("guest.build", time.Since(tb))
			tr.end(sp)
			images[u.imgID] = img
		}
		sp := tr.begin("core.NewVM", setupSpan, i)
		vm, err := core.NewVM(mem.NewPool(4*vmRAM/4096), core.Config{Name: u.name, Mode: u.mode, MemBytes: vmRAM})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		tr.end(sp)
		if u.apply != nil {
			u.apply(vm)
		}
		sp = tr.begin("vm.Boot", setupSpan, i)
		tb := time.Now()
		if err := vm.Boot(img); err != nil {
			return nil, fmt.Errorf("%s: boot: %w", u.name, err)
		}
		res.addHost("core.boot", time.Since(tb))
		tr.end(sp)
		vms[i] = vm
	}
	tr.end(setupSpan)
	res.setup = time.Since(t0)

	before := res.startTimed()
	runSpan := tr.begin("run", -1, -1)
	t1 := time.Now()
	steps := make([]uint64, len(units))
	for i, vm := range vms {
		unitSpan := tr.begin("unit", runSpan, i)
		for vm.State == core.StateRunning && steps[i] < maxSteps {
			sp := tr.begin("vm.Step", unitSpan, i)
			ts := time.Now()
			vm.Step(quantum)
			res.ops = append(res.ops, msSince(ts))
			res.sampleHeap()
			tr.end(sp)
			steps[i]++
		}
		tr.end(unitSpan)
	}
	res.run = time.Since(t1)
	tr.end(runSpan)
	res.finishTimed(before)

	for i, vm := range vms {
		u := unitResult{name: units[i].name, key: units[i].key, counts: vmCounts(vm)}
		u.counts["core.step_calls"] = steps[i]
		u.counts["mem.pool_allocs"] = vm.Mem.Pool().InUse()
		res.instret += vm.CPU.Instret
		switch {
		case vm.State != core.StateHalted:
			u.fail = fmt.Sprintf("did not halt: state %v, err %v", vm.State, vm.Err)
		case vm.HaltCode != 0:
			u.fail = fmt.Sprintf("halted with code %#x", vm.HaltCode)
		}
		d := newDigester()
		d.vm(vm)
		u.digest = d.sum()
		res.units = append(res.units, u)
		vm.Release()
	}
	return res, nil
}

// kernelExits runs the universal kernel's exit-heavy workloads in all four
// modes: the traffic the T/F reproduction runs.
var kernelExits = &workload{
	name:     "kernel-exits",
	op:       "vm.Step of 1 M cycles",
	opMetric: "step_ms",
	tail:     0.99,
	plan: func(seed uint64) passFunc {
		r := newRNG(seed, "memtouch")
		units := kernelUnits(int(r.next()%4), int(r.next()%4))
		return func(tr *tracer) (*passResult, error) { return serialPass(units, tr) }
	},
	allPlans: func() []passFunc {
		var plans []passFunc
		for j := 0; j < 16; j++ {
			units := kernelUnits(j%4, j/4)
			plans = append(plans, func(tr *tracer) (*passResult, error) { return serialPass(units, tr) })
		}
		return plans
	},
}

// The kernel units' sizes. MemTouch's working set (pages) and write
// fraction (percent) come from the seed: mode i takes menu entry
// (i + rotation) mod 4 of each, with both rotations drawn from the seed, so
// a seed changes every unit's inputs while the pass as a whole keeps the
// same working sets. The iteration count keeps the touches per unit near
// memTouchTouches whatever the working set.
var (
	memTouchPages     = []uint64{640, 768, 896, 1024}
	memTouchWriteFrac = []uint64{20, 30, 40, 50}
)

const (
	computeIters    = 6_000 // × 50 ALU ops + 1 privileged op
	computePeriod   = 50
	memTouchTouches = 64 * 1024
	ptChurnIters    = 60 // × 256 pages mapped, touched and unmapped
	syscallCount    = 60_000
)

func kernelUnits(pageRot, writeRot int) []serialUnit {
	var units []serialUnit
	for i, mode := range allModes {
		add := func(kind, params string, w guest.Workload) {
			name := kind + "/" + mode.String()
			units = append(units, serialUnit{
				name: name, key: name + params, mode: mode,
				image: guest.BuildKernel, imgID: "kernel",
				apply: w.Apply,
			})
		}
		add("compute", "", guest.Compute(computeIters, computePeriod))
		ws, wf := memTouchPages[(i+pageRot)%4], memTouchWriteFrac[(i+writeRot)%4]
		add("memtouch", fmt.Sprintf("/ws=%d/wf=%d", ws, wf), guest.MemTouch(memTouchTouches/ws, ws, wf))
		add("ptchurn", "", guest.PTChurn(ptChurnIters, false))
		add("syscall", "", guest.Syscall(syscallCount))
	}
	return units
}

// guestStreams runs the six stream kinds in native and hw modes: the
// interpreter's fast paths with almost no exits.
var guestStreams = &workload{
	name:     "guest-streams",
	op:       "vm.Step of 1 M cycles",
	opMetric: "step_ms",
	tail:     0.99,
	plan: func(seed uint64) passFunc {
		units := streamUnits(int(newRNG(seed, "unroll").next() % streamMenuLen))
		return func(tr *tracer) (*passResult, error) { return serialPass(units, tr) }
	},
	allPlans: func() []passFunc {
		var plans []passFunc
		for rot := 0; rot < streamMenuLen; rot++ {
			units := streamUnits(rot)
			plans = append(plans, func(tr *tracer) (*passResult, error) { return serialPass(units, tr) })
		}
		return plans
	},
}

const streamMenuLen = 4

// streamShapes gives each stream kind its unroll menu (the loop body
// length) and its retired-instruction budget per unit. Kind k in mode m
// takes menu entry (k + m + rotation) mod the menu's length, the seed
// drawing the rotation; the iteration count is budget ÷ unroll, so the work
// stays level across seeds. xpage-loop's body length is fixed: its short
// loop crosses a page every iteration, so the length sets the crossings per
// instruction and with them the step time, and its steps are the pass's
// slowest: a seed-chosen length would let the seed, not the simulator, set
// op_ms_tail.
var streamShapes = []struct {
	kind   guest.StreamKind
	unroll []uint64
	instrs uint64
}{
	{guest.StreamALU, []uint64{384, 448, 512, 576}, 8_000_000},
	{guest.StreamCopy, []uint64{384, 448, 512, 576}, 5_000_000},
	{guest.StreamStore, []uint64{384, 448, 512, 576}, 5_000_000},
	{guest.StreamMixed, []uint64{384, 448, 512, 576}, 5_000_000},
	{guest.StreamXPageALU, []uint64{1800, 2000, 2200, 2400}, 8_000_000},
	{guest.StreamXPageLoop, []uint64{12}, 5_000_000},
}

func streamUnits(rot int) []serialUnit {
	var units []serialUnit
	for m, mode := range []core.Mode{core.ModeNative, core.ModeHW} {
		for k, s := range streamShapes {
			unroll := s.unroll[(k+m+rot)%len(s.unroll)]
			iters := s.instrs / unroll
			name := s.kind.String() + "/" + mode.String()
			units = append(units, serialUnit{
				name: name, key: fmt.Sprintf("%s/unroll=%d", name, unroll), mode: mode,
				image: func() ([]byte, error) { return guest.BuildStreamProgram(s.kind, iters, unroll) },
				imgID: fmt.Sprintf("%v/%d", s.kind, unroll),
			})
		}
	}
	return units
}
