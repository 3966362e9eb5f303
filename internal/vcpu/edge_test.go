package vcpu

import (
	"testing"

	"govisor/internal/asm"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

func TestFinishMMIOReadExtensions(t *testing.T) {
	c := newCPU(t, []byte{0, 0, 0, 0}, 0x1000)
	cases := []struct {
		size   uint8
		signed bool
		in     uint64
		want   uint64
	}{
		{1, true, 0x80, 0xFFFFFFFFFFFFFF80},
		{1, false, 0x80, 0x80},
		{2, true, 0x8000, 0xFFFFFFFFFFFF8000},
		{2, false, 0x8000, 0x8000},
		{4, true, 0x80000000, 0xFFFFFFFF80000000},
		{4, false, 0x80000000, 0x80000000},
		{8, false, 0xDEADBEEF00000000, 0xDEADBEEF00000000},
	}
	for _, tc := range cases {
		c.FinishMMIORead(MMIOInfo{Size: tc.size, Rd: isa.RegA0, Signed: tc.signed}, tc.in)
		if c.X[isa.RegA0] != tc.want {
			t.Errorf("size %d signed %v: got %#x want %#x", tc.size, tc.signed, c.X[isa.RegA0], tc.want)
		}
	}
	// Writes to x0 are dropped.
	c.FinishMMIORead(MMIOInfo{Size: 8, Rd: 0}, 0xFFFF)
	if c.X[0] != 0 {
		t.Fatal("x0 written")
	}
}

func TestEmulatePrivilegedRejectsGarbage(t *testing.T) {
	c := newCPU(t, []byte{0, 0, 0, 0}, 0x1000)
	if err := c.EmulatePrivileged(isa.Inst{Op: isa.OpADD}); err == nil {
		t.Fatal("emulating ADD should fail")
	}
	if err := c.EmulatePrivileged(isa.Inst{Op: isa.OpCSRRW, Imm: 0x7FF}); err == nil {
		t.Fatal("unknown CSR should fail")
	}
	if err := c.EmulatePrivileged(isa.Inst{Op: isa.OpCSRRW, Rs1: 1, Imm: int32(isa.CSRCycle)}); err == nil {
		t.Fatal("read-only CSR write should fail")
	}
}

func TestCSRRSWithX0DoesNotWrite(t *testing.T) {
	// csrr (CSRRS rd, csr, x0) must not fault on read-only CSRs.
	c := buildRun(t, func(b *asm.Builder) {
		b.Csrr(isa.RegA0, isa.CSRCycle) // read-only: must succeed
		b.Halt(0)
	})
	if c.X[isa.RegA0] == 0 {
		t.Fatal("cycle read failed")
	}
}

func TestWriteToReadOnlyCSRTraps(t *testing.T) {
	c := buildRun(t, func(b *asm.Builder) {
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.Li(isa.RegT1, 5)
		b.Csrw(isa.CSRCycle, isa.RegT1) // illegal
		b.Label("spin")
		b.J("spin")
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA0, isa.CSRScause)
		b.Halt(0)
	})
	if c.X[isa.RegA0] != isa.CauseIllegal {
		t.Fatalf("cause = %d", c.X[isa.RegA0])
	}
}

func TestMisalignedPCTraps(t *testing.T) {
	b := asm.NewBuilder(0x1000)
	b.La(isa.RegT0, "handler")
	b.Csrw(isa.CSRStvec, isa.RegT0)
	b.Li(isa.RegT1, 0x2002) // misaligned target
	b.Jalr(isa.RegZero, isa.RegT1, 0)
	b.Align(4)
	b.Label("handler")
	b.Csrr(isa.RegA0, isa.CSRScause)
	b.Halt(0)
	img, _ := b.Finish()
	c := newCPU(t, img, 0x1000)
	if ex := c.Run(100_000); ex.Reason != ExitHalt {
		t.Fatalf("exit %v", ex)
	}
	// JALR clears bit 0 only; 0x2002 stays misaligned → instr-misaligned.
	if c.X[isa.RegA0] != isa.CauseInstrMisaligned {
		t.Fatalf("cause = %d", c.X[isa.RegA0])
	}
}

func TestHaltFromUserModeIsIllegal(t *testing.T) {
	c := buildRun(t, func(b *asm.Builder) {
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.La(isa.RegT1, "user")
		b.Csrw(isa.CSRSepc, isa.RegT1)
		b.Li(isa.RegT2, 0)
		b.Csrw(isa.CSRSstatus, isa.RegT2)
		b.Sret()
		b.Label("user")
		b.Halt(1) // privileged from U → illegal
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA0, isa.CSRScause)
		b.Halt(0)
	})
	if c.X[isa.RegA0] != isa.CauseIllegal {
		t.Fatalf("cause = %d", c.X[isa.RegA0])
	}
}

func TestSRETFromUserIsIllegal(t *testing.T) {
	c := buildRun(t, func(b *asm.Builder) {
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.La(isa.RegT1, "user")
		b.Csrw(isa.CSRSepc, isa.RegT1)
		b.Li(isa.RegT2, 0)
		b.Csrw(isa.CSRSstatus, isa.RegT2)
		b.Sret()
		b.Label("user")
		b.Sret()
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA0, isa.CSRScause)
		b.Halt(0)
	})
	if c.X[isa.RegA0] != isa.CauseIllegal {
		t.Fatalf("cause = %d", c.X[isa.RegA0])
	}
}

func TestInterruptPriorityExtBeforeTimer(t *testing.T) {
	c := newCPU(t, []byte{0, 0, 0, 0}, 0x1000)
	c.CSR.Sie = 1<<isa.IntExt | 1<<isa.IntTimer | 1<<isa.IntSoft
	c.CSR.Sstatus = isa.StatusSIE
	c.Priv = PrivS
	c.RaiseIRQ(isa.IntSoft)
	c.RaiseIRQ(isa.IntTimer)
	c.RaiseIRQ(isa.IntExt)
	if got := c.PendingInterrupt(); got != isa.IntExt {
		t.Fatalf("priority pick = %d", got)
	}
	c.ClearIRQ(isa.IntExt)
	if got := c.PendingInterrupt(); got != isa.IntTimer {
		t.Fatalf("second pick = %d", got)
	}
}

func TestInterruptMaskedBySIE(t *testing.T) {
	c := newCPU(t, []byte{0, 0, 0, 0}, 0x1000)
	c.Priv = PrivS
	c.CSR.Sie = 1 << isa.IntTimer
	c.RaiseIRQ(isa.IntTimer)
	if c.PendingInterrupt() != 0 {
		t.Fatal("S-mode with SIE=0 must mask")
	}
	// U-mode takes enabled interrupts regardless of SIE.
	c.Priv = PrivU
	if c.PendingInterrupt() != isa.IntTimer {
		t.Fatal("U-mode should take it")
	}
}

func TestTrapStacksAndSRETRestoresState(t *testing.T) {
	c := newCPU(t, []byte{0, 0, 0, 0}, 0x1000)
	c.Priv = PrivU
	c.CSR.Sstatus = isa.StatusSIE
	c.CSR.Stvec = 0x3000
	c.PC = 0x2000
	c.InjectTrap(isa.CauseEcallU, 0)
	if c.Priv != PrivS || c.PC != 0x3000 || c.CSR.Sepc != 0x2000 {
		t.Fatalf("trap entry state: priv=%d pc=%#x sepc=%#x", c.Priv, c.PC, c.CSR.Sepc)
	}
	st := c.CSR.Sstatus
	if st&isa.StatusSIE != 0 || st&isa.StatusSPIE == 0 || st&isa.StatusSPP != 0 {
		t.Fatalf("sstatus after trap = %#x", st)
	}
	c.ExecuteSRET()
	if c.Priv != PrivU || c.PC != 0x2000 {
		t.Fatalf("sret state: priv=%d pc=%#x", c.Priv, c.PC)
	}
	if c.CSR.Sstatus&isa.StatusSIE == 0 {
		t.Fatal("SIE not restored")
	}
}

func TestHostFaultExitOnBalloonedCodePage(t *testing.T) {
	// Executing from an unmapped page must escalate to the VMM, not the
	// guest (failure injection: balloon stole the code page).
	g := mem.NewGuestPhys(mem.NewPool(64), 32*isa.PageSize)
	g.PopulateAll()
	b := asm.NewBuilder(0x1000)
	b.Nop()
	b.Halt(0)
	img, _ := b.Finish()
	g.Write(0x1000, img)
	g.Unmap(1) // steal the code page
	c := New(g, mmu.NewContext(g, mmu.StyleDirect), EngineTraced)
	c.Priv = PrivS
	c.PC = 0x1000
	ex := c.Run(10_000)
	if ex.Reason != ExitHostFault || ex.Mem.Kind != mem.FaultNotPresent {
		t.Fatalf("exit = %v", ex)
	}
}

func TestExitStringsRender(t *testing.T) {
	exits := []Exit{
		{Reason: ExitHalt, Code: 3},
		{Reason: ExitPriv, Inst: isa.Inst{Op: isa.OpSRET}},
		{Reason: ExitMMIO, MMIO: MMIOInfo{GPA: 0x4000_0000, Size: 4, Write: true}},
		{Reason: ExitGuestTrap, Cause: isa.CauseIllegal},
		{Reason: ExitHostFault, Mem: &mem.Fault{Kind: mem.FaultNotPresent}},
		{Reason: ExitQuantum},
	}
	for _, e := range exits {
		if e.String() == "" {
			t.Fatalf("empty render for %v", e.Reason)
		}
	}
	if ExitReason(200).String() == "" {
		t.Fatal("unknown reason should still render")
	}
}
