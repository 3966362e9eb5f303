package guest

import (
	"fmt"
	"math/rand"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
)

// Cross-page control-flow torture: randomized standalone guests whose blocks
// straddle page boundaries, whose terminators (taken and not-taken branches,
// jumps, fallthroughs) land on both sides of boundaries, and whose bodies
// store into a successor code page (SMC) and flush the TLB between chained
// blocks — every invalidation rule of the chain cache on one instruction
// stream. The suites below prove every engine tier — chaining and the
// layers composed with it — byte-identical to the oracle on it.

// buildChainTorture assembles one randomized cross-page guest. The layout is
// seed-deterministic: a loop over segments whose bodies are padded to
// straddle page boundaries, terminated by a random mix of fallthroughs,
// always-taken branches, never-taken branches (the armed-but-fallthrough
// chain case) and jumps; one segment holds a patchable slot a later
// iteration overwrites in place (SMC into a chained page), and every few
// iterations the loop tail runs SFENCE.VMA so live chain links go stale
// under the TLB-generation check.
func buildChainTorture(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder(gabi.KernelBase)
	b.Mv(isa.RegS11, isa.RegA0)
	emitTrapStub(b)

	loadParam(b, isa.RegT0, gabi.PSatp)
	b.Csrw(isa.CSRSatp, isa.RegT0)
	b.SfenceVMA(isa.RegZero, isa.RegZero)

	// Data page for the load/store mix (identity-mapped heap).
	loadParam(b, isa.RegS1, gabi.PHeapBase)
	b.I(isa.OpSLLI, isa.RegS1, isa.RegS1, isa.PageShift)

	iters := uint64(40 + rng.Intn(24))
	b.Li(isa.RegS0, iters)
	b.Li(isa.RegS2, 0) // ascending iteration index

	seg := func(i int) string { return fmt.Sprintf("seg%d", i) }
	nseg := 6 + rng.Intn(4)
	patchSeg := rng.Intn(nseg)

	b.Label("top")
	for i := 0; i < nseg; i++ {
		b.Label(seg(i))
		// Park roughly half the segments just below a page boundary so the
		// body enters on one page and retires across it.
		if rng.Intn(2) == 0 {
			next := (b.PC() + isa.PageSize) &^ uint64(isa.PageSize-1)
			lead := uint64(2+rng.Intn(8)) * 4
			for b.PC()+lead < next {
				b.Nop()
			}
		}
		for k, blen := 0, 8+rng.Intn(24); k < blen; k++ {
			switch rng.Intn(6) {
			case 0:
				b.I(isa.OpADDI, isa.RegA0, isa.RegA0, int64(1+rng.Intn(7)))
			case 1:
				b.R(isa.OpXOR, isa.RegA1, isa.RegA1, isa.RegA0)
			case 2:
				b.R(isa.OpADD, isa.RegA2, isa.RegA2, isa.RegA1)
			case 3:
				b.I(isa.OpSLLI, isa.RegA3, isa.RegA2, int64(1+rng.Intn(3)))
			case 4:
				b.Load(isa.OpLD, isa.RegT1, isa.RegS1, int64(rng.Intn(64))*8)
			case 5:
				b.Store(isa.OpSD, isa.RegA2, isa.RegS1, int64(rng.Intn(64))*8)
			}
		}
		if i == patchSeg {
			b.Label("patch_slot")
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		switch rng.Intn(4) {
		case 0: // fallthrough into the next segment
		case 1: // always taken: s0 is nonzero until the loop tail retires it
			b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, seg(i+1))
		case 2: // never taken: arms a chain source, then falls through
			b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, seg(i+1))
		case 3:
			b.J(seg(i + 1))
		}
	}
	b.Label(seg(nseg))

	// SMC: halfway through the run, rewrite the patch slot in place
	// (+1 becomes +3), invalidating its page's decoded image and every
	// chain link into it.
	b.Li(isa.RegT0, iters/2)
	b.Branch(isa.OpBNE, isa.RegS2, isa.RegT0, "no_smc")
	b.La(isa.RegT3, "patch_slot")
	b.Li(isa.RegT2, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
	b.Store(isa.OpSW, isa.RegT2, isa.RegT3, 0)
	b.Label("no_smc")

	// Every 8th iteration: full TLB flush between chained blocks, so links
	// recorded before it fail the generation check and re-resolve.
	b.I(isa.OpANDI, isa.RegT0, isa.RegS2, 7)
	b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "no_flush")
	b.SfenceVMA(isa.RegZero, isa.RegZero)
	b.Label("no_flush")

	b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, "done")
	b.J("top") // back edge: JAL reaches across the multi-page body
	b.Label("done")
	b.Halt(0)
	emitTrapStubBody(b)
	img, err := b.Finish()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return img
}

// bootChainTorture boots one torture image standalone and runs it to halt.
func bootChainTorture(t *testing.T, mode core.Mode, img []byte, tweak func(*core.Config)) *core.VM {
	t.Helper()
	cfg := core.Config{Name: "chain-" + mode.String(), Mode: mode, MemBytes: testRAM}
	if tweak != nil {
		tweak(&cfg)
	}
	vm, err := core.NewVM(mem.NewPool(2*testRAM>>isa.PageShift), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(runBudget); st != core.StateHalted {
		t.Fatalf("[%v] final state %v (err=%v, pc=%#x)", mode, st, vm.Err, vm.CPU.PC)
	}
	if vm.HaltCode != 0 {
		t.Fatalf("[%v] guest panicked: halt=%#x", mode, vm.HaltCode)
	}
	return vm
}

// TestDifferentialBlockChainInvisible is the serial proof on randomized
// cross-page control-flow guests: every tier must be indistinguishable from
// the oracle, and every tier's layer up to chaining — the proof's point —
// must run. (These churning guests rarely stay hot long enough to form a
// trace; the trace torture below is the traced tier's workload.)
func TestDifferentialBlockChainInvisible(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		img := buildChainTorture(t, seed)
		for _, mode := range []core.Mode{core.ModeNative, core.ModeHW} {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				live := proveTiers(t, func(e vcpu.Engine) *core.VM {
					return bootChainTorture(t, mode, img, withEngine(e))
				})
				for _, e := range []vcpu.Engine{vcpu.EngineCached, vcpu.EngineBlocks, vcpu.EngineChained} {
					if !live[e] {
						t.Errorf("%v: the tier's layer never ran", e)
					}
				}
			})
		}
	}
}

// TestDifferentialBlockChainParallel extends the proof to the parallel
// engine: a fleet of torture guests (distinct seeds) at the chained tier
// under RunParallel must be byte-identical to the oracle fleet at every
// worker count 1..4, including host clock and pool occupancy.
func TestDifferentialBlockChainParallel(t *testing.T) {
	imgs := [][]byte{
		buildChainTorture(t, 101),
		buildChainTorture(t, 202),
		buildChainTorture(t, 303),
		buildChainTorture(t, 404),
	}
	proveTierFleet(t, vcpu.EngineChained, func(tweak func(*core.Config)) *core.Host {
		return buildImageFleet(t, "chain", imgs, tweak)
	})
}

// buildImageFleet boots one standalone hw-mode VM per image on a shared
// host under the credit scheduler.
func buildImageFleet(t *testing.T, name string, imgs [][]byte, tweak func(*core.Config)) *core.Host {
	t.Helper()
	h := core.NewHost(16<<20>>isa.PageShift, 2, sched.NewCredit())
	for i, img := range imgs {
		cfg := core.Config{Name: fmt.Sprintf("%s%d", name, i), Mode: core.ModeHW, MemBytes: testRAM}
		if tweak != nil {
			tweak(&cfg)
		}
		vm, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	return h
}
