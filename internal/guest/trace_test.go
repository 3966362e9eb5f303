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
	"govisor/internal/vcpu"
)

// Hot-trace torture: randomized cross-page guests whose loops run hot enough
// to promote chains into traces, then hit every invalidation rule mid-flight —
// SMC into a constituent page, periodic SFENCE.VMA between formation and
// entry, and branch divergence inside a formed trace. The suites below prove
// every engine tier byte-identical to the oracle on these streams.

// buildTraceTorture assembles one randomized hot-loop guest. Compared to the
// chain torture, the loop body is calmer (fewer, longer segments, an SFENCE
// only every 16th iteration and SMC once at the midpoint) and runs more
// iterations, so per-link heat crosses the promotion threshold between
// disturbances and the run spends real time inside formed traces — which the
// SMC store and the fences then tear down mid-flight.
func buildTraceTorture(t *testing.T, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder(gabi.KernelBase)
	b.Mv(isa.RegS11, isa.RegA0)
	emitTrapStub(b)

	loadParam(b, isa.RegT0, gabi.PSatp)
	b.Csrw(isa.CSRSatp, isa.RegT0)
	b.SfenceVMA(isa.RegZero, isa.RegZero)

	loadParam(b, isa.RegS1, gabi.PHeapBase)
	b.I(isa.OpSLLI, isa.RegS1, isa.RegS1, isa.PageShift)

	iters := uint64(60 + rng.Intn(40))
	b.Li(isa.RegS0, iters)
	b.Li(isa.RegS2, 0) // ascending iteration index

	seg := func(i int) string { return fmt.Sprintf("seg%d", i) }
	nseg := 3 + rng.Intn(3)
	patchSeg := rng.Intn(nseg)

	b.Label("top")
	for i := 0; i < nseg; i++ {
		b.Label(seg(i))
		// Park segments just below a page boundary so trace hops cross it.
		if rng.Intn(2) == 0 {
			next := (b.PC() + isa.PageSize) &^ uint64(isa.PageSize-1)
			lead := uint64(2+rng.Intn(8)) * 4
			for b.PC()+lead < next {
				b.Nop()
			}
		}
		for k, blen := 0, 12+rng.Intn(28); k < blen; k++ {
			switch rng.Intn(8) {
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
			default:
				// Heavier ALU share than the chain torture: memless spans the
				// trace engine folds into batched replays.
				b.I(isa.OpADDI, isa.RegA4, isa.RegA4, 1)
			}
		}
		if i == patchSeg {
			b.Label("patch_slot")
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		switch rng.Intn(4) {
		case 0: // fallthrough into the next segment
		case 1: // always taken while the loop is live
			b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, seg(i+1))
		case 2: // never taken: an armed link a formed trace must not follow
			b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, seg(i+1))
		case 3:
			b.J(seg(i + 1))
		}
	}
	b.Label(seg(nseg))

	// SMC at the midpoint: rewrite the patch slot in place (+1 becomes +3),
	// bumping its page version — every trace with that page as a constituent
	// must demote on the exact instruction the block path would re-decode.
	b.Li(isa.RegT0, iters/2)
	b.Branch(isa.OpBNE, isa.RegS2, isa.RegT0, "no_smc")
	b.La(isa.RegT3, "patch_slot")
	b.Li(isa.RegT2, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
	b.Store(isa.OpSW, isa.RegT2, isa.RegT3, 0)
	b.Label("no_smc")

	// Every 16th iteration: full TLB flush. Promotion needs 8 clean consume
	// hits, so traces form and run between fences and go stale across them.
	b.I(isa.OpANDI, isa.RegT0, isa.RegS2, 15)
	b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, "no_flush")
	b.SfenceVMA(isa.RegZero, isa.RegZero)
	b.Label("no_flush")

	b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBEQ, isa.RegS0, isa.RegZero, "done")
	b.J("top")
	b.Label("done")
	b.Halt(0)
	emitTrapStubBody(b)
	img, err := b.Finish()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return img
}

// bootTraceTorture boots one torture image standalone and runs it to halt.
func bootTraceTorture(t *testing.T, mode core.Mode, img []byte, tweak func(*core.Config)) *core.VM {
	t.Helper()
	cfg := core.Config{Name: "trace-" + mode.String(), Mode: mode, MemBytes: testRAM}
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

// TestDifferentialTraceInvisible is the serial proof on randomized hot-loop
// guests with SMC and flush churn: every tier must be indistinguishable
// from the oracle, and every tier's layer — traces included — must run.
func TestDifferentialTraceInvisible(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		img := buildTraceTorture(t, seed)
		for _, mode := range []core.Mode{core.ModeNative, core.ModeHW} {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				live := proveTiers(t, func(e vcpu.Engine) *core.VM {
					return bootTraceTorture(t, mode, img, withEngine(e))
				})
				for _, e := range engineTiers {
					if !live[e] {
						t.Errorf("%v: the tier's layer never ran", e)
					}
				}
			})
		}
	}
}

// TestDifferentialTraceParallel extends the proof to the parallel engine: a
// fleet of trace-torture guests (distinct seeds) at the traced tier under
// RunParallel must be byte-identical to the oracle fleet at every worker
// count 1..4, including host clock and pool occupancy.
func TestDifferentialTraceParallel(t *testing.T) {
	imgs := [][]byte{
		buildTraceTorture(t, 111),
		buildTraceTorture(t, 222),
		buildTraceTorture(t, 333),
		buildTraceTorture(t, 444),
	}
	proveTierFleet(t, vcpu.EngineTraced, func(tweak func(*core.Config)) *core.Host {
		return buildImageFleet(t, "trace", imgs, tweak)
	})
}
