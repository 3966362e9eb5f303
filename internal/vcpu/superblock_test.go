package vcpu

import (
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// newTierPair builds two CPUs over identical images loaded at 0x1000: one
// at engine tier e, one at the oracle tier it must be indistinguishable
// from. tweak, when set, applies the same setup to both.
func newTierPair(t *testing.T, img []byte, e Engine, tweak func(*CPU)) (tier, oracle *CPU) {
	t.Helper()
	build := func(e Engine) *CPU {
		g := mem.NewGuestPhys(mem.NewPool(ramPages*2), ramPages*isa.PageSize)
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
		if f := g.Write(0x1000, img); f != nil {
			t.Fatal(f)
		}
		c := New(g, mmu.NewContext(g, mmu.StyleDirect), e)
		c.Priv = PrivS
		c.PC = 0x1000
		if tweak != nil {
			tweak(c)
		}
		return c
	}
	return build(e), build(EngineOracle)
}

// compareCPUs asserts every architectural and statistical field matches.
func compareCPUs(t *testing.T, label string, a, b *CPU) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Instret != b.Instret {
		t.Errorf("%s: time diverged: (cyc=%d ret=%d) vs oracle (cyc=%d ret=%d)",
			label, a.Cycles, a.Instret, b.Cycles, b.Instret)
	}
	if a.X != b.X || a.PC != b.PC || a.Priv != b.Priv {
		t.Errorf("%s: register state diverged (pc %#x vs %#x)", label, a.PC, b.PC)
	}
	if a.CSR != b.CSR {
		t.Errorf("%s: CSR state diverged: %+v vs %+v", label, a.CSR, b.CSR)
	}
	if a.Stats != b.Stats {
		t.Errorf("%s: exit stats diverged: %+v vs %+v", label, a.Stats, b.Stats)
	}
	if a.MMU.Stats != b.MMU.Stats {
		t.Errorf("%s: MMU stats diverged: %+v vs %+v", label, a.MMU.Stats, b.MMU.Stats)
	}
	if a.MMU.TLB.Stats != b.MMU.TLB.Stats {
		t.Errorf("%s: TLB stats diverged: %+v vs %+v", label, a.MMU.TLB.Stats, b.MMU.TLB.Stats)
	}
}

// straightLineImg builds a program whose body is one long straight-line run:
// n ALU instructions mixing in a load+store pair every 8 ops, then HALT.
func straightLineImg(t *testing.T, n int) []byte {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, 0x8000) // scratch page
	for i := 0; i < n; i++ {
		switch i % 8 {
		case 3:
			b.Load(isa.OpLD, isa.RegT1, isa.RegS0, 0)
		case 6:
			b.Store(isa.OpSD, isa.RegA0, isa.RegS0, 8)
		default:
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
	}
	b.Halt(0)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSuperblockQuantumFallback: quantum expiry must land on exactly the
// same instruction with blocks on or off — the horizon check falls back to
// the per-instruction path whenever the deadline could land inside a block.
// Swept across budgets so the deadline lands on every boundary of the run,
// including deep inside would-be blocks.
func TestSuperblockQuantumFallback(t *testing.T) {
	img := straightLineImg(t, 100)
	for budget := uint64(1); budget < 160; budget += 3 {
		blocks, slow := newTierPair(t, img, EngineTraced, nil)
		for {
			exB := blocks.Run(budget)
			exS := slow.Run(budget)
			if exB.Reason != exS.Reason {
				t.Fatalf("budget %d: exit diverged: blocks %v slow %v (pc %#x vs %#x)",
					budget, exB, exS, blocks.PC, slow.PC)
			}
			compareCPUs(t, "quantum", blocks, slow)
			if t.Failed() {
				t.Fatalf("diverged at budget %d", budget)
			}
			if exB.Reason == ExitHalt {
				break
			}
		}
	}
}

// TestSuperblockStimecmpFallback: the STIP latch must set at exactly the
// same instruction boundary with blocks on or off, for every placement of
// STIMECMP inside the run — including mid-block, where dispatch must fall
// back. With the timer interrupt enabled the trap must also vector at the
// identical point.
func TestSuperblockStimecmpFallback(t *testing.T) {
	// Handler at 0x2000: rearm stimecmp far away, record entry, sret.
	b := asm.NewBuilder(0x2000)
	b.I(isa.OpADDI, isa.RegA7, isa.RegA7, 1) // count timer traps
	b.Li(isa.RegT2, 1<<40)
	b.Csrw(isa.CSRStimecmp, isa.RegT2)
	b.Sret()
	handler, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	img := straightLineImg(t, 100)
	for _, enableIRQ := range []bool{false, true} {
		for cmp := uint64(1); cmp < 140; cmp += 7 {
			tweak := func(c *CPU) {
				if f := c.Mem.Write(0x2000, handler); f != nil {
					t.Fatal(f)
				}
				c.CSR.Stvec = 0x2000
				c.CSR.Stimecmp = cmp
				if enableIRQ {
					c.CSR.Sie = 1 << isa.IntTimer
					c.CSR.Sstatus = isa.StatusSIE
				}
			}
			blocks, slow := newTierPair(t, img, EngineTraced, tweak)
			for {
				exB := blocks.Run(1_000_000)
				exS := slow.Run(1_000_000)
				if exB.Reason != exS.Reason {
					t.Fatalf("irq=%v cmp %d: exit diverged: %v vs %v", enableIRQ, cmp, exB, exS)
				}
				compareCPUs(t, "stimecmp", blocks, slow)
				if t.Failed() {
					t.Fatalf("diverged at irq=%v cmp=%d", enableIRQ, cmp)
				}
				if exB.Reason == ExitHalt {
					break
				}
			}
			if enableIRQ && blocks.X[isa.RegA7] == 0 {
				t.Fatalf("cmp %d: timer trap never delivered", cmp)
			}
		}
	}
}

// TestSuperblockInterruptWindowFallback: a deprivileged vCPU with an
// interrupt becoming deliverable partway through a straight-line run must
// exit with ExitIntrWindow at exactly the same instruction with blocks on or
// off. The IRQ is raised between Run calls (as the VMM does), with small
// quanta so re-entry points land mid-run.
func TestSuperblockInterruptWindowFallback(t *testing.T) {
	img := straightLineImg(t, 100)
	for raiseAt := uint64(10); raiseAt < 150; raiseAt += 13 {
		tweak := func(c *CPU) {
			c.Deprivileged = true
			c.CSR.Sie = 1 << isa.IntExt
			c.CSR.Sstatus = isa.StatusSIE
		}
		blocks, slow := newTierPair(t, img, EngineTraced, tweak)
		raised := false
		for {
			budget := uint64(25)
			exB := blocks.Run(budget)
			exS := slow.Run(budget)
			if exB.Reason != exS.Reason {
				t.Fatalf("raiseAt %d: exit diverged: %v vs %v (pc %#x vs %#x)",
					raiseAt, exB, exS, blocks.PC, slow.PC)
			}
			compareCPUs(t, "intr-window", blocks, slow)
			if t.Failed() {
				t.Fatalf("diverged at raiseAt=%d", raiseAt)
			}
			switch exB.Reason {
			case ExitHalt:
				if !raised {
					t.Fatalf("raiseAt %d: halted before the IRQ was raised", raiseAt)
				}
				return
			case ExitIntrWindow:
				// Both exited the window at the same point; deliver and go on.
				blocks.InjectTrap(isa.CauseInterrupt|isa.IntExt, 0)
				slow.InjectTrap(isa.CauseInterrupt|isa.IntExt, 0)
				blocks.ClearIRQ(isa.IntExt)
				slow.ClearIRQ(isa.IntExt)
				// Return from the "handler" immediately: there is no guest
				// handler mapped at stvec 0, so just unwind via SRET state.
				blocks.ExecuteSRET()
				slow.ExecuteSRET()
			}
			if !raised && blocks.Cycles >= raiseAt {
				blocks.RaiseIRQ(isa.IntExt)
				slow.RaiseIRQ(isa.IntExt)
				raised = true
			}
		}
	}
}

// TestSuperblockSelfModifyingCode: a store into the executing superblock
// must end the block and re-predecode, keeping block execution byte-
// identical with the per-instruction path (which notices on the very next
// fetch).
func TestSuperblockSelfModifyingCode(t *testing.T) {
	blocks, slow := newTierPair(t, smcProgram(), EngineTraced, nil)
	exB, exS := blocks.Run(1_000_000), slow.Run(1_000_000)
	if exB.Reason != ExitHalt || exS.Reason != ExitHalt {
		t.Fatalf("exits: blocks %v slow %v", exB, exS)
	}
	if blocks.X[isa.RegA0] != 111 {
		t.Fatalf("blocks a0 = %d, want 111 (stale superblock?)", blocks.X[isa.RegA0])
	}
	compareCPUs(t, "smc", blocks, slow)
}

// TestSuperblockLoweringShapes pins the lowering pass: run lengths and
// memory-op counts are suffix sums that stop at terminators and the page
// boundary.
func TestSuperblockLoweringShapes(t *testing.T) {
	g := mem.NewGuestPhys(mem.NewPool(8), 4*isa.PageSize)
	if err := g.PopulateAll(); err != nil {
		t.Fatal(err)
	}
	img := words(
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 1}, // 0: run of 4
		isa.Inst{Op: isa.OpLD, Rd: isa.RegT0, Rs1: isa.RegS0},           // 1: mem
		isa.Inst{Op: isa.OpSD, Rs2: isa.RegT0, Rs1: isa.RegS0, Imm: 8},  // 2: mem
		isa.Inst{Op: isa.OpADD, Rd: isa.RegA1, Rs1: isa.RegA0},          // 3
		isa.Inst{Op: isa.OpBEQ, Rs1: isa.RegZero, Rs2: isa.RegZero},     // 4: terminator
		isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 1}, // 5: run of 1
		isa.Inst{Op: isa.OpJAL, Rd: isa.RegZero},                        // 6: terminator
	)
	if f := g.Write(0, img); f != nil {
		t.Fatal(f)
	}
	ic := NewICache()
	ic.fill(g, 0)
	p := ic.pages[0]
	wantLen := []uint16{4, 3, 2, 1, 0, 1, 0}
	wantMem := []uint16{2, 2, 1, 0, 0, 0, 0}
	for i, w := range wantLen {
		if p.blkLen[i] != w {
			t.Errorf("blkLen[%d] = %d, want %d", i, p.blkLen[i], w)
		}
		if p.blkMem[i] != wantMem[i] {
			t.Errorf("blkMem[%d] = %d, want %d", i, p.blkMem[i], wantMem[i])
		}
	}
	// The rest of the page is zeroed: OpIllegal, all terminators.
	for i := len(wantLen); i < instPerPage; i++ {
		if p.blkLen[i] != 0 {
			t.Fatalf("blkLen[%d] = %d for zeroed slot", i, p.blkLen[i])
		}
	}
	// Page-boundary cap: a page ending in straight-line ops must not run
	// past the last slot.
	var full []isa.Inst
	for i := 0; i < instPerPage; i++ {
		full = append(full, isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 1})
	}
	if f := g.Write(isa.PageSize, words(full...)); f != nil {
		t.Fatal(f)
	}
	ic.fill(g, 1)
	p1 := ic.pages[1]
	if p1.blkLen[0] != instPerPage || p1.blkLen[instPerPage-1] != 1 {
		t.Errorf("page-spanning run mislowered: blkLen[0]=%d blkLen[last]=%d",
			p1.blkLen[0], p1.blkLen[instPerPage-1])
	}
}

// TestBlockHorizonSaturatedCycles: the block admission check must be exact
// when the cycle counter runs near ^uint64(0). The old form computed
// `horizon := c.Cycles + span`; with the clock saturated the addition
// wrapped, the tiny wrapped horizon compared below the deadline, and a block
// whose span crossed the quantum was dispatched — retiring past the deadline
// (and, once the clock itself wrapped, running clean through HALT while the
// reference arm exited with ExitQuantum). The wrap-guarded blockAdmissible
// refuses dispatch and both arms exit at the identical instruction.
func TestBlockHorizonSaturatedCycles(t *testing.T) {
	// A long load-heavy straight-line run: big worst-case span.
	var ins []isa.Inst
	for i := 0; i < 200; i++ {
		ins = append(ins,
			isa.Inst{Op: isa.OpLW, Rd: isa.RegT0, Rs1: isa.RegZero, Imm: 0x100},
			isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 1})
	}
	ins = append(ins, isa.Inst{Op: isa.OpHALT})
	img := words(ins...)
	cached, plain := newTierPair(t, img, EngineTraced, nil)
	span := uint64(len(ins)-1)*cached.Costs.Instr +
		200*(cached.Costs.MemAccess+cached.MMU.MaxWalkRefs()*cached.Costs.PTRef)
	delta := span / 2   // span >= delta: admission must refuse...
	budget := delta / 2 // ...and the deadline itself must not wrap
	for _, c := range []*CPU{cached, plain} {
		c.Cycles = ^uint64(0) - delta
	}
	exC, exP := cached.Run(budget), plain.Run(budget)
	if exC.Reason != ExitQuantum || exP.Reason != ExitQuantum {
		t.Fatalf("exits: cached %v plain %v, want ExitQuantum (wrapped horizon admitted the block?)", exC, exP)
	}
	if cached.X != plain.X || cached.Cycles != plain.Cycles ||
		cached.Instret != plain.Instret || cached.PC != plain.PC {
		t.Fatalf("saturated-clock runs diverged: cached (cyc=%d ret=%d pc=%#x) plain (cyc=%d ret=%d pc=%#x)",
			cached.Cycles, cached.Instret, cached.PC, plain.Cycles, plain.Instret, plain.PC)
	}
	// The same saturated entry must also hold with STIMECMP armed just past
	// the clock: cmp - Cycles < span, so admission refuses; the latch then
	// fires at the same loop-top boundary either way.
	cached2, plain2 := newTierPair(t, img, EngineTraced, nil)
	for _, c := range []*CPU{cached2, plain2} {
		c.Cycles = ^uint64(0) - span - span/4
		c.CSR.Stimecmp = c.Cycles + delta
	}
	exC2, exP2 := cached2.Run(span*2), plain2.Run(span*2)
	if exC2.Reason != exP2.Reason {
		t.Fatalf("stimecmp exits diverged: cached %v plain %v", exC2, exP2)
	}
	if cached2.CSR != plain2.CSR || cached2.Cycles != plain2.Cycles || cached2.Instret != plain2.Instret {
		t.Fatalf("stimecmp runs diverged: cached (cyc=%d sip=%#x) plain (cyc=%d sip=%#x)",
			cached2.Cycles, cached2.CSR.Sip, plain2.Cycles, plain2.CSR.Sip)
	}
}

// chainLoopImg builds a loop whose body straddles the 0x2000 page boundary:
// a one-time straight-line prologue pads execution up to just below the
// boundary, then the loop body runs 8 instructions on the first page,
// crosses into the second, and branches back. Every iteration exercises both
// chain paths — the page-boundary pseudo-terminator (cross-page superblock
// continuation) and the back-edge terminator (chained block entry).
func chainLoopImg(t *testing.T, iters uint64) []byte {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	b.Li(isa.RegS0, iters)
	for b.PC() < 0x1FE0 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
	}
	b.Label("loop")
	for b.PC() < 0x2020 {
		b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
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

// TestBlockChainCrossPageLoop: a hot loop straddling a page boundary must be
// byte-identical between the chained tier and the oracle — across a budget
// sweep that lands quantum deadlines on every boundary near the crossing —
// while the chained run actually crosses and chains.
func TestBlockChainCrossPageLoop(t *testing.T) {
	img := chainLoopImg(t, 50)
	for budget := uint64(97); budget < 4000; budget += 449 {
		chained, oracle := newTierPair(t, img, EngineChained, nil)
		for {
			exC := chained.Run(budget)
			exO := oracle.Run(budget)
			if exC.Reason != exO.Reason {
				t.Fatalf("budget %d: exit diverged: chained %v oracle %v (pc %#x vs %#x)",
					budget, exC, exO, chained.PC, oracle.PC)
			}
			compareCPUs(t, "chain", chained, oracle)
			if t.Failed() {
				t.Fatalf("diverged at budget %d", budget)
			}
			if exC.Reason == ExitHalt {
				break
			}
		}
		st := chained.ICache.Stats
		if st.Crossings == 0 || st.ChainHits == 0 {
			t.Fatalf("budget %d: chain engine idle: %+v", budget, st)
		}
		if st.TraceFormations != 0 {
			t.Fatalf("budget %d: the chained tier formed traces: %+v", budget, st)
		}
	}
}

// TestBlockChainSMCAndFlushInvalidation: a chained successor must be
// re-proven on every consumption. The guest overwrites an instruction in the
// *successor* page of a chained crossing (page version bump) and later runs
// an SFENCE.VMA between chained iterations (TLB generation bump); both must
// invalidate the link and the chained tier must stay byte-identical to the
// oracle.
func TestBlockChainSMCAndFlushInvalidation(t *testing.T) {
	// Loop straddles 0x2000; iteration 25 stores a new instruction into the
	// successor page (changing an ADDI a0,+1 to ADDI a0,+3 at 0x2010), and
	// every iteration executes SFENCE.VMA (a system terminator between the
	// chained back-edge and the next entry).
	build := func(sfence bool) []byte {
		b := asm.NewBuilder(0x1000)
		b.Li(isa.RegS0, 50)
		for b.PC() < 0x1FF0 {
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		b.Label("loop")
		for b.PC() < 0x2020 {
			b.I(isa.OpADDI, isa.RegA0, isa.RegA0, 1)
		}
		// if s0 == 25: patch 0x2010 with "addi a0, a0, 3"
		b.Li(isa.RegT0, 25)
		b.Branch(isa.OpBNE, isa.RegS0, isa.RegT0, "nopatch")
		b.Li(isa.RegT1, uint64(isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 3})))
		b.Li(isa.RegT2, 0x2010)
		b.Store(isa.OpSW, isa.RegT1, isa.RegT2, 0)
		b.Label("nopatch")
		if sfence {
			b.SfenceVMA(isa.RegZero, isa.RegZero)
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
	for _, sfence := range []bool{false, true} {
		img := build(sfence)
		chained, oracle := newTierPair(t, img, EngineChained, nil)
		exC, exO := chained.Run(10_000_000), oracle.Run(10_000_000)
		if exC.Reason != ExitHalt || exO.Reason != ExitHalt {
			t.Fatalf("sfence=%v exits: chained %v oracle %v", sfence, exC, exO)
		}
		compareCPUs(t, "chain-smc", chained, oracle)
		if t.Failed() {
			t.FailNow()
		}
		if st := chained.ICache.Stats; st.Crossings == 0 {
			t.Fatalf("sfence=%v: loop never crossed in-block: %+v", sfence, st)
		}
	}
}

// TestBlockChainRemapFlushExact: the one invalidation the page-version check
// cannot see — the guest rewrites a leaf PTE so the chained virtual page maps
// to a different frame with different code, then SFENCE.VMAs. The chain
// link's translation snapshot still names the old frame (whose content, and
// hence page version, never changed), so only the TLB-generation check in
// mmu.ChainFetch stands between the chained arm and silently executing stale
// code. The chained tier must stay byte-identical to the oracle across the
// remap, and both must observe the new frame's code.
func TestBlockChainRemapFlushExact(t *testing.T) {
	const (
		targetVA = uint64(0x200000) // chained page, outside the identity region
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
		// Identity-map code, data and the page tables themselves (the guest
		// rewrites a leaf slot directly, like the PT-churn workload).
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

		// Both frames: bump a1, then return to the loop. Frame 2 bumps by 2,
		// so executing a stale frame after the remap is architecturally
		// visible.
		for _, fr := range []struct {
			ppn uint64
			inc int64
		}{{frame1, 1}, {frame2, 2}} {
			fb := asm.NewBuilder(targetVA)
			fb.I(isa.OpADDI, isa.RegA1, isa.RegA1, fr.inc)
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
		b.Jalr(isa.RegZero, isa.RegS4, 0) // into the chained page
		b.Label("loopret")
		b.Branch(isa.OpBNE, isa.RegS2, isa.RegT5, "no_remap")
		b.Store(isa.OpSD, isa.RegS6, isa.RegS5, 0) // retarget the leaf PTE
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

	chained, oracle := build(EngineChained), build(EngineOracle)
	for name, c := range map[string]*CPU{"chained": chained, "oracle": oracle} {
		if ex := c.Run(10_000_000); ex.Reason != ExitHalt {
			t.Fatalf("%s: exit %v (pc=%#x)", name, ex, c.PC)
		}
	}
	// Iterations 0..remapAt ran frame 1 (+1), the rest frame 2 (+2): both
	// arms must have switched frames at exactly the remap.
	want := (remapAt + 1) + (iters-remapAt-1)*2
	if chained.X[isa.RegA1] != want || oracle.X[isa.RegA1] != want {
		t.Errorf("a1: chained=%d oracle=%d want %d (stale frame executed?)",
			chained.X[isa.RegA1], oracle.X[isa.RegA1], want)
	}
	compareCPUs(t, "remap", chained, oracle)
	if st := chained.ICache.Stats; st.ChainHits == 0 {
		t.Errorf("chained arm never chained: %+v", st)
	}
}
