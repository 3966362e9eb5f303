package vcpu

import (
	"fmt"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// runPairToHalt drives both arms to halt and asserts byte-identical state.
func runPairToHalt(t *testing.T, label string, traced, oracle *CPU) {
	t.Helper()
	exT, exP := traced.Run(50_000_000), oracle.Run(50_000_000)
	if exT.Reason != ExitHalt || exP.Reason != ExitHalt {
		t.Fatalf("%s: exits: traced %v oracle %v (pc %#x vs %#x)", label, exT, exP, traced.PC, oracle.PC)
	}
	compareCPUs(t, label, traced, oracle)
	if t.Failed() {
		t.FailNow()
	}
}

// TestTraceFormationAndLoop: the boundary-straddling hot loop must promote
// to a closed-loop trace (one formation, one entry per iteration) and stay
// byte-identical to the oracle.
func TestTraceFormationAndLoop(t *testing.T) {
	img := chainLoopImg(t, 200)
	traced, oracle := newTierPair(t, img, EngineTraced, nil)
	runPairToHalt(t, "trace-loop", traced, oracle)
	st := traced.ICache.Stats
	if st.TraceFormations == 0 || st.TraceEntries < 100 {
		t.Fatalf("trace engine idle on a hot loop: %+v", st)
	}
}

// TestTraceQuantumFallback: quantum expiry must land on exactly the same
// instruction with traces on or off. The whole-span admission refuses a pass
// whose worst case could cross the deadline, the per-iteration re-admission
// refuses further passes, and a budget sweep lands the deadline on every
// boundary in and around would-be traces.
func TestTraceQuantumFallback(t *testing.T) {
	img := chainLoopImg(t, 60)
	var entries uint64
	for budget := uint64(97); budget < 4000; budget += 449 {
		traced, oracle := newTierPair(t, img, EngineTraced, nil)
		for {
			exT := traced.Run(budget)
			exP := oracle.Run(budget)
			if exT.Reason != exP.Reason {
				t.Fatalf("budget %d: exit diverged: traced %v oracle %v (pc %#x vs %#x)",
					budget, exT, exP, traced.PC, oracle.PC)
			}
			compareCPUs(t, "trace-quantum", traced, oracle)
			if t.Failed() {
				t.Fatalf("diverged at budget %d", budget)
			}
			if exT.Reason == ExitHalt {
				break
			}
		}
		entries += traced.ICache.Stats.TraceEntries
	}
	if entries == 0 {
		t.Fatal("no budget in the sweep admitted a single trace pass")
	}
}

// TestTraceStimecmpExact: the timer latch must flip at exactly the same
// instruction with traces on or off — the trace admission refuses any pass
// whose worst-case span could cross an unlatched STIMECMP. Swept so the
// latch point lands before, inside and after the hot loop's trace passes.
func TestTraceStimecmpExact(t *testing.T) {
	img := chainLoopImg(t, 60)
	for cmp := uint64(50); cmp < 6000; cmp += 377 {
		traced, oracle := newTierPair(t, img, EngineTraced, nil)
		traced.CSR.Stimecmp, oracle.CSR.Stimecmp = cmp, cmp
		runPairToHalt(t, "trace-stimecmp", traced, oracle)
		if traced.CSR.Sip != oracle.CSR.Sip {
			t.Fatalf("cmp %d: Sip diverged: %#x vs %#x", cmp, traced.CSR.Sip, oracle.CSR.Sip)
		}
	}
}

// traceTortureImg builds the straddling loop with a mid-loop branch that
// patches an instruction in the trace's second constituent page at iteration
// patchAt (SMC into a mid-trace page), and optionally an SFENCE.VMA every
// 16th iteration (TLB generation churn between formation and entry).
func traceTortureImg(t *testing.T, iters, patchAt uint64, sfence bool) []byte {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, iters)
	for b.PC() < 0x1FF0 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	}
	b.Label("loop")
	for b.PC() < 0x2020 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	}
	if patchAt != 0 {
		// if s0 == patchAt: overwrite the ADDI at 0x2010 with "addi a0, a0, 3"
		b.Li(isa.RegT0, patchAt)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegT0, "nopatch")
		b.Li(isa.RegT1, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
		b.Li(isa.RegT2, 0x2010)
		b.Store(isa.OpSW, isa.RegT1, isa.RegT2, 0)
		b.Label("nopatch")
	}
	if sfence {
		// if s0 % 16 == 0: SFENCE.VMA — lands between trace formation
		// (heat saturates in 8 clean iterations) and later entries.
		b.Li(isa.RegT3, 16)
		b.R(isa.OpREMU, isa.RegT4, isa.RegS0, isa.RegT3)
		b.Branch(isa.OpBNE, isa.RegT4, isa.RegZero, "nofence")
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Label("nofence")
	}
	b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
	b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "loop")
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestTraceSMCMidTraceConstituent: a store into a mid-trace constituent page
// (the successor page of the crossing) must demote the trace on the exact
// instruction where the block path notices, and both arms must stay
// byte-identical through the patch, the refill and the re-formation.
func TestTraceSMCMidTraceConstituent(t *testing.T) {
	img := traceTortureImg(t, 50, 25, false)
	traced, oracle := newTierPair(t, img, EngineTraced, nil)
	runPairToHalt(t, "trace-smc", traced, oracle)
	st := traced.ICache.Stats
	if st.TraceEntries == 0 {
		t.Fatalf("trace never entered before the patch: %+v", st)
	}
	if st.TraceDemotions == 0 {
		t.Fatalf("SMC into a constituent page never demoted: %+v", st)
	}
}

// TestTraceSfenceBetweenFormationAndEntry: SFENCE.VMA between formation and
// the next entry bumps the TLB generation, so every translation snapshot the
// trace depends on goes stale at once. Entry admission must refuse the pass
// (a demotion per fence) and fall back to the block path, which re-proves
// the links; once their snapshots are fresh the same trace re-admits — all
// byte-identical to the oracle.
func TestTraceSfenceBetweenFormationAndEntry(t *testing.T) {
	img := traceTortureImg(t, 96, 0, true)
	traced, oracle := newTierPair(t, img, EngineTraced, nil)
	runPairToHalt(t, "trace-sfence", traced, oracle)
	st := traced.ICache.Stats
	if st.TraceDemotions == 0 {
		t.Fatalf("SFENCE churn never demoted a pass: %+v", st)
	}
	if st.TraceEntries == 0 {
		t.Fatalf("trace never entered between fences: %+v", st)
	}
	if st.TraceEntries < st.TraceDemotions {
		t.Fatalf("trace never recovered between fences: %+v", st)
	}
}

// TestTraceRemapFlushExact: the invalidation the page-version check cannot
// see — a leaf PTE is retargeted to a different frame whose code differs
// while the old frame's content (and so its version) never changes. The
// trace's snapshots still name the old frame; only the TLB-generation check
// stands between the traced arm and silently executing stale code. Both
// arms must observe the new frame at exactly the remap iteration.
func TestTraceRemapFlushExact(t *testing.T) {
	const (
		targetVA = uint64(0x200000)
		frame1   = uint64(80)
		frame2   = uint64(81)
		iters    = uint64(64)
		remapAt  = uint64(32)
	)
	build := func(e Engine) *CPU {
		g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
		tb, err := mmu.NewTableBuilder(g, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.IdentityMap(160*isa.PageSize, isa.PTERead|isa.PTEWrite|isa.PTEExec); err != nil {
			t.Fatal(err)
		}
		if err := tb.Map(targetVA, frame1<<isa.PageShift, isa.PTERead|isa.PTEExec); err != nil {
			t.Fatal(err)
		}
		l0, err := tb.EnsureL0(targetVA)
		if err != nil {
			t.Fatal(err)
		}
		pteAddr := l0<<isa.PageShift + isa.VPN(targetVA, 0)*8
		newPTE := isa.MakePTE(frame2, isa.PTERead|isa.PTEExec|isa.PTEValid|isa.PTEAcc|isa.PTEDirty)

		// Both frames: bump a1 (frame 2 by 2, so staleness is visible), then
		// jump back to the loop.
		for _, fr := range []struct {
			ppn uint64
			inc int64
		}{{frame1, 1}, {frame2, 2}} {
			fb := asm.NewBuilder(targetVA)
			fb.I(isa.OpADDI, isa.RegA1, isa.RegA1, fr.inc)
			fb.I(isa.OpADDI, isa.RegA2, isa.RegA2, 1)
			fb.Jalr(isa.RegZero, isa.RegS3, 0)
			fimg, err := fb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if f := g.Write(fr.ppn<<isa.PageShift, fimg); f != nil {
				t.Fatal(f)
			}
		}

		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegT0, isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN))
		b.Csrw(isa.CSRSatp, isa.RegT0)
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.La(isa.RegS3, "loopret")
		b.Li(isa.RegS4, targetVA)
		b.Li(isa.RegS5, pteAddr)
		b.Li(isa.RegS6, newPTE)
		b.Li(isa.RegS0, iters)
		b.Li(isa.RegS2, 0)
		b.Li(isa.RegT5, remapAt)
		b.Label("top")
		// Two straight instructions so the loop head is a traceable block,
		// then into the remapped page (a trace constituent).
		b.I(isa.OpADDI, isa.RegA3, isa.RegA3, 1)
		b.I(isa.OpADDI, isa.RegA4, isa.RegA4, 1)
		b.Jalr(isa.RegZero, isa.RegS4, 0)
		b.Label("loopret")
		b.Branch(isa.OpBNE, isa.RegS2, isa.RegT5, "no_remap")
		b.Store(isa.OpSD, isa.RegS6, isa.RegS5, 0)
		b.SfenceVMA(isa.RegZero, isa.RegZero)
		b.Label("no_remap")
		b.I(isa.OpADDI, isa.RegS2, isa.RegS2, 1)
		b.I(isa.OpADDI, isa.RegS0, isa.RegS0, -1)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegZero, "top")
		b.Halt(0)
		img, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if f := g.Write(0x1000, img); f != nil {
			t.Fatal(f)
		}

		c := New(g, mmu.NewContext(g, mmu.StyleDirect), e)
		c.Priv = PrivS
		c.PC = 0x1000
		return c
	}

	traced, oracle := build(EngineTraced), build(EngineOracle)
	runPairToHalt(t, "trace-remap", traced, oracle)
	want := (remapAt + 1) + (iters-remapAt-1)*2
	if traced.X[isa.RegA1] != want || oracle.X[isa.RegA1] != want {
		t.Errorf("a1: traced=%d oracle=%d want %d (stale frame executed?)",
			traced.X[isa.RegA1], oracle.X[isa.RegA1], want)
	}
	if st := traced.ICache.Stats; st.TraceEntries == 0 {
		t.Errorf("traced arm never entered a trace: %+v", st)
	}
}

// TestTraceStoreEviction: more hot loops than the trace store holds. Each
// tiny loop runs hot enough to form its own trace; past maxTraces the store
// must evict deterministically, keep every arm byte-identical, and keep
// admitting the still-hot newcomers.
func TestTraceStoreEviction(t *testing.T) {
	const loops = maxTraces + 6
	b := asm.NewBuilder(0x1000)
	for i := 0; i < loops; i++ {
		lbl := fmt.Sprintf("loop%d", i)
		b.Li(isa.RegT0, 16)
		b.Label(lbl)
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		b.I(isa.OpADDI, isa.RegA1, isa.RegA1, 1)
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, -1)
		b.Branch(isa.OpBNE, isa.RegT0, isa.RegZero, lbl)
	}
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	traced, oracle := newTierPair(t, img, EngineTraced, nil)
	runPairToHalt(t, "trace-evict", traced, oracle)
	st := traced.ICache.Stats
	if st.TraceFormations < loops {
		t.Fatalf("expected ≥%d formations, got %+v", loops, st)
	}
	if st.TraceInvalidations < loops-maxTraces {
		t.Fatalf("expected ≥%d store evictions, got %+v", loops-maxTraces, st)
	}
	if len(traced.ICache.traces) > maxTraces {
		t.Fatalf("trace store over bound: %d", len(traced.ICache.traces))
	}
}
