package core

import (
	"strings"
	"testing"

	"govisor/internal/asm"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
)

const (
	tRAM   = 1 << 20
	tPool  = 8 << 20 >> isa.PageShift
	budget = 500_000_000
)

// miniProgram assembles a tiny standalone guest.
func miniProgram(t *testing.T, build func(b *asm.Builder)) []byte {
	t.Helper()
	b := asm.NewBuilder(gabi.KernelBase)
	build(b)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newTestVM(t *testing.T, mode Mode) *VM {
	t.Helper()
	vm, err := NewVM(mem.NewPool(tPool), Config{Name: "t", Mode: mode, MemBytes: tRAM})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestVMRejectsTinyMemory(t *testing.T) {
	if _, err := NewVM(mem.NewPool(64), Config{Name: "x", MemBytes: 1024}); err == nil {
		t.Fatal("tiny VM accepted")
	}
}

// TestVMEngineTierWiring: the icache is attached exactly above the oracle
// tier, and a tier past the oracle is rejected rather than silently run as
// some other tier.
func TestVMEngineTierWiring(t *testing.T) {
	for _, e := range []vcpu.Engine{vcpu.EngineTraced, vcpu.EngineChained, vcpu.EngineBlocks, vcpu.EngineCached, vcpu.EngineOracle} {
		vm, err := NewVM(mem.NewPool(tPool), Config{Name: "t", Mode: ModeNative, MemBytes: tRAM, Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := vm.CPU.ICache != nil, e != vcpu.EngineOracle; got != want {
			t.Errorf("%v: icache attached = %v, want %v", e, got, want)
		}
	}
	if _, err := NewVM(mem.NewPool(tPool), Config{Name: "t", Mode: ModeNative, MemBytes: tRAM, Engine: vcpu.EngineOracle + 1}); err == nil {
		t.Error("an unknown engine tier was accepted")
	}
}

func TestBootRejectsDoubleBootAndHugeKernel(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) { b.Halt(0) })
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if err := vm.Boot(img); err == nil {
		t.Fatal("double boot accepted")
	}
	vm2 := newTestVM(t, ModeNative)
	if err := vm2.Boot(make([]byte, tRAM)); err == nil {
		t.Fatal("oversized kernel accepted")
	}
}

func TestHypercallConsoleOutput(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		for _, ch := range "hi\n" {
			b.Li(isa.RegA0, uint64(ch))
			b.Li(isa.RegA7, gabi.HCPutchar)
			b.Ecall()
		}
		// HCPuts with a string in memory.
		b.La(isa.RegA0, "msg")
		b.Li(isa.RegA7, gabi.HCPuts)
		b.Ecall()
		b.Halt(0)
		b.Label("msg")
		b.Asciiz("govisor")
	})
	if err := vm.Boot(img); err != nil {
		t.Fatal(err)
	}
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	if got := vm.Output(); got != "hi\ngovisor" {
		t.Fatalf("output %q", got)
	}
}

func TestHypercallUnknownReturnsENoSys(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA7, 9999)
		b.Ecall()
		// a0 now holds the error; halt with it truncated.
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v", st)
	}
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != gabi.HCENoSys {
		t.Fatalf("ret = %#x", v)
	}
}

func TestHypercallExit(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA0, 42)
		b.Li(isa.RegA7, gabi.HCExit)
		b.Ecall()
		b.Halt(7) // unreachable
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v", st)
	}
	if vm.HaltCode != 42 {
		t.Fatalf("halt code %d", vm.HaltCode)
	}
}

func TestParaMapValidation(t *testing.T) {
	vm := newTestVM(t, ModePara)
	img := miniProgram(t, func(b *asm.Builder) {
		// Attempt to map the PT region itself (forbidden).
		b.Li(isa.RegA0, ChurnWindowVA)
		b.Li(isa.RegA1, tRAM-isa.PageSize) // inside the reserved tables
		b.Li(isa.RegA2, isa.PTERead|isa.PTEWrite)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		// Misaligned va (not page aligned).
		b.Li(isa.RegA0, ChurnWindowVA+123)
		b.Li(isa.RegA1, 0x10000)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x108)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	v1, _ := vm.Mem.ReadUint(0x100, 8)
	v2, _ := vm.Mem.ReadUint(0x108, 8)
	if v1 != gabi.HCEInval || v2 != gabi.HCEInval {
		t.Fatalf("rets = %#x, %#x", v1, v2)
	}
}

func TestParaMapRejectedInOtherModes(t *testing.T) {
	vm := newTestVM(t, ModeHW)
	img := miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegA0, ChurnWindowVA)
		b.Li(isa.RegA1, 0x10000)
		b.Li(isa.RegA2, isa.PTERead)
		b.Li(isa.RegA7, gabi.HCMMUMap)
		b.Ecall()
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	vm.RunToHalt(budget)
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != gabi.HCEInval {
		t.Fatalf("ret = %#x", v)
	}
}

func TestGuestAccessBeyondRAMFaults(t *testing.T) {
	vm := newTestVM(t, ModeNative)
	img := miniProgram(t, func(b *asm.Builder) {
		b.La(isa.RegT0, "handler")
		b.Csrw(isa.CSRStvec, isa.RegT0)
		b.Li(isa.RegT1, 0x3000_0000) // beyond RAM, below MMIO
		b.Load(isa.OpLD, isa.RegT2, isa.RegT1, 0)
		b.Halt(1)
		b.Align(4)
		b.Label("handler")
		b.Csrr(isa.RegA0, isa.CSRScause)
		b.Store(isa.OpSD, isa.RegA0, isa.RegZero, 0x100)
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted || vm.HaltCode != 0 {
		t.Fatalf("state %v code %d", st, vm.HaltCode)
	}
	v, _ := vm.Mem.ReadUint(0x100, 8)
	if v != isa.CauseLoadAccess {
		t.Fatalf("cause = %d", v)
	}
}

func TestBalloonReclaimAndReturn(t *testing.T) {
	vm := newTestVM(t, ModeHW)
	bal, _, err := vm.AttachVirtioBalloon()
	if err != nil {
		t.Fatal(err)
	}
	img := miniProgram(t, func(b *asm.Builder) {
		// Touch page 0x40 so it is resident, then spin on param 0.
		b.Li(isa.RegT0, 0x40000)
		b.Store(isa.OpSD, isa.RegT0, isa.RegT0, 0)
		b.Halt(0)
	})
	vm.Boot(img)
	vm.RunToHalt(budget)
	if vm.Mem.Frame(0x40) == mem.NoFrame {
		t.Fatal("page not resident")
	}
	// Host-side reclaim through the balloon ops (as the device would).
	ops := balloonOps{vm}
	ops.ReclaimPage(0x40)
	if vm.Mem.Frame(0x40) != mem.NoFrame {
		t.Fatal("reclaim did not unmap")
	}
	ops.ReturnPage(0x40)
	if vm.Mem.Frame(0x40) == mem.NoFrame {
		t.Fatal("return did not remap")
	}
	_ = bal
}

func TestReclaimHookRetriesAllocation(t *testing.T) {
	// Pool sized so the guest runs out; the hook frees one page each time.
	pool := mem.NewPool(40)
	vm, err := NewVM(pool, Config{Name: "oc", Mode: ModeHW, MemBytes: tRAM})
	if err != nil {
		t.Fatal(err)
	}
	var reclaims int
	vm.ReclaimHook = func() bool {
		// Evict the lowest present heap page.
		for gfn := uint64(0x20); gfn < vm.Mem.Pages(); gfn++ {
			if vm.Mem.Frame(gfn) != mem.NoFrame && !vm.Mem.WriteProtected(gfn) {
				vm.Mem.Unmap(gfn)
				reclaims++
				return true
			}
		}
		return false
	}
	img := miniProgram(t, func(b *asm.Builder) {
		// Touch 64 distinct pages at 0x40000.. — more than the pool allows.
		b.Li(isa.RegT0, 0x40000)
		b.Li(isa.RegT1, 64)
		b.Label("loop")
		b.Store(isa.OpSD, isa.RegT1, isa.RegT0, 0)
		b.Li(isa.RegT2, isa.PageSize)
		b.R(isa.OpADD, isa.RegT0, isa.RegT0, isa.RegT2)
		b.I(isa.OpADDI, isa.RegT1, isa.RegT1, -1)
		b.Branch(isa.OpBNE, isa.RegT1, isa.RegZero, "loop")
		b.Halt(0)
	})
	vm.Boot(img)
	if st := vm.RunToHalt(budget); st != StateHalted {
		t.Fatalf("state %v err %v", st, vm.Err)
	}
	if reclaims == 0 {
		t.Fatal("hook never fired")
	}
}

// spinProgram counts iterations into params[PResult0] forever.
func spinProgram(t *testing.T) []byte {
	return miniProgram(t, func(b *asm.Builder) {
		b.Li(isa.RegT0, 0)
		b.Label("loop")
		b.I(isa.OpADDI, isa.RegT0, isa.RegT0, 1)
		b.Li(isa.RegT1, gabi.ParamBase+gabi.PResult0*8)
		b.Store(isa.OpSD, isa.RegT0, isa.RegT1, 0)
		b.J("loop")
	})
}

func TestHostRunSharesCPUFairly(t *testing.T) {
	cs := sched.NewCredit()
	h := NewHost(tPool, 1, cs)
	img := spinProgram(t)
	for i := 0; i < 3; i++ {
		vm, err := h.CreateVM(Config{Name: "vm", Mode: ModeHW, MemBytes: tRAM})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Boot(img); err != nil {
			t.Fatal(err)
		}
		h.AddToScheduler(i, 256, 0)
	}
	h.Run(60_000_000)
	var counts []uint64
	for _, vm := range h.VMs {
		counts = append(counts, vm.Result(gabi.PResult0))
	}
	for _, c := range counts {
		if c == 0 {
			t.Fatalf("a VM starved: %v", counts)
		}
	}
	// Equal weights: within 25% of each other.
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) > 1.25*float64(min) {
		t.Fatalf("unfair split: %v", counts)
	}
}

func TestHostRunStopsWhenAllHalt(t *testing.T) {
	h := NewHost(tPool, 1, sched.NewRoundRobin(DefaultQuantum))
	img := miniProgram(t, func(b *asm.Builder) { b.Halt(0) })
	vm, _ := h.CreateVM(Config{Name: "vm", Mode: ModeNative, MemBytes: tRAM})
	vm.Boot(img)
	h.AddToScheduler(0, 1, 0)
	h.Run(1_000_000_000)
	if !h.AllHalted() {
		t.Fatalf("vm state %v", vm.State)
	}
	if !strings.Contains(h.String(), "vms=1") {
		t.Fatal("host String")
	}
}

func TestHostWeightedShares(t *testing.T) {
	cs := sched.NewCredit()
	h := NewHost(tPool, 1, cs)
	img := spinProgram(t)
	for i := 0; i < 2; i++ {
		vm, _ := h.CreateVM(Config{Name: "vm", Mode: ModeHW, MemBytes: tRAM})
		vm.Boot(img)
	}
	h.AddToScheduler(0, 512, 0) // 4x weight
	h.AddToScheduler(1, 128, 0)
	h.Run(120_000_000)
	c0 := h.VMs[0].Result(gabi.PResult0)
	c1 := h.VMs[1].Result(gabi.PResult0)
	ratio := float64(c0) / float64(c1)
	if ratio < 3.0 || ratio > 5.0 {
		t.Fatalf("weight 4:1 gave %.2f (%d vs %d)", ratio, c0, c1)
	}
}

func TestModeAndStateStrings(t *testing.T) {
	for _, m := range []Mode{ModeNative, ModeTrap, ModePara, ModeHW} {
		if m.String() == "mode?" {
			t.Fatal("mode string")
		}
	}
	for _, s := range []State{StateCreated, StateRunning, StateIdle, StatePaused, StateHalted, StateError} {
		if s.String() == "state?" {
			t.Fatal("state string")
		}
	}
}
