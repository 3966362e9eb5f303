package vcpu

import (
	"math/rand"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// TestExecTableComplete pins the completeness contract of the threaded-
// dispatch table: every valid opcode resolves to an executor, and invalid or
// out-of-range opcodes (Decode passes any 6-bit value through) resolve to
// nil without panicking. FuzzDecode enforces the same property over the
// whole word space.
func TestExecTableComplete(t *testing.T) {
	if missing := execTable.Unresolved(func(f execFn) bool { return f == nil }); len(missing) > 0 {
		t.Fatalf("opcodes with no threaded executor: %v", missing)
	}
	for op := isa.Op(0); op < 64; op++ {
		if got := ExecutorResolved(op); got != op.Valid() {
			t.Errorf("ExecutorResolved(%v) = %v, want %v", op, got, op.Valid())
		}
	}
}

// TestThreadedDispatchQuantumSweep: quantum expiry must land on exactly the
// same instruction on the threaded executors as on the oracle's dispatch
// switch, with superblocks both running (traced tier) and not (cached tier)
// — the same sweep that protects the superblock horizon, re-aimed at the
// dispatch engine.
func TestThreadedDispatchQuantumSweep(t *testing.T) {
	img := straightLineImg(t, 100)
	for _, e := range []Engine{EngineTraced, EngineCached} {
		for budget := uint64(1); budget < 160; budget += 3 {
			threaded, sw := newTierPair(t, img, e, nil)
			for {
				exT := threaded.Run(budget)
				exS := sw.Run(budget)
				if exT.Reason != exS.Reason {
					t.Fatalf("%v budget %d: exit diverged: threaded %v switch %v (pc %#x vs %#x)",
						e, budget, exT, exS, threaded.PC, sw.PC)
				}
				compareCPUs(t, "dispatch-quantum", threaded, sw)
				if t.Failed() {
					t.Fatalf("diverged at %v budget %d", e, budget)
				}
				if exT.Reason == ExitHalt {
					break
				}
			}
		}
	}
}

// TestThreadedDispatchSelfModifyingCode: the SMC bail must behave
// identically on the threaded executors and the oracle's dispatch switch.
func TestThreadedDispatchSelfModifyingCode(t *testing.T) {
	threaded, sw := newTierPair(t, smcProgram(), EngineTraced, nil)
	exT, exS := threaded.Run(1_000_000), sw.Run(1_000_000)
	if exT.Reason != ExitHalt || exS.Reason != ExitHalt {
		t.Fatalf("exits: threaded %v switch %v", exT, exS)
	}
	if threaded.X[isa.RegA0] != 111 {
		t.Fatalf("threaded a0 = %d, want 111 (stale executor?)", threaded.X[isa.RegA0])
	}
	compareCPUs(t, "dispatch-smc", threaded, sw)
}

// TestDecodeResolvesExecutors guards the differential suites against
// vacuity: every tier above the oracle dispatches through the executor
// table, so its plumbing must actually resolve an executor for every decoded
// slot — a regression that left fn nil would silently fall back to the
// oracle's switch and pass every equivalence test.
func TestDecodeResolvesExecutors(t *testing.T) {
	threaded, _ := newTierPair(t, straightLineImg(t, 100), EngineTraced, nil)
	if ex := threaded.Run(1_000_000); ex.Reason != ExitHalt {
		t.Fatalf("run ended %v", ex)
	}
	slots := 0
	for gfn, p := range threaded.ICache.pages {
		for i := 0; i < instPerPage; i++ {
			if p.valid[i>>6]&(1<<(i&63)) == 0 {
				continue
			}
			slots++
			if want := p.ins[i].Op.Valid(); (p.fn[i] != nil) != want {
				t.Fatalf("gfn %d slot %d (%s): fn resolved=%v, want %v",
					gfn, i, p.ins[i].Op, p.fn[i] != nil, want)
			}
		}
	}
	if slots == 0 {
		t.Fatal("no decoded slots found — icache never engaged")
	}
}

// knownCSRs biases the randomized CSR trials toward implemented registers.
var knownCSRs = []uint16{
	isa.CSRSstatus, isa.CSRSie, isa.CSRStvec, isa.CSRSscratch, isa.CSRSepc,
	isa.CSRScause, isa.CSRStval, isa.CSRSip, isa.CSRStimecmp, isa.CSRSatp,
	isa.CSRCycle, isa.CSRTime, isa.CSRInstret, isa.CSRVenv,
}

// TestThreadedExecutorsMatchSwitch is the per-opcode equivalence property:
// for every valid opcode, a randomized single-step through the threaded
// executor must leave the machine in exactly the state the oracle's
// dispatch switch produces — registers, PC, privilege, CSRs, cycles, instret, every
// statistic — and agree on whether (and with what) Run would exit. The
// status/Exit mapping is checked directly: done ⇔ stExit, with the same
// Exit value.
func TestThreadedExecutorsMatchSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const pages = 64
	build := func(seed int64) *CPU {
		r := rand.New(rand.NewSource(seed))
		g := mem.NewGuestPhys(mem.NewPool(pages*2), pages*isa.PageSize)
		if err := g.PopulateAll(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, isa.PageSize)
		for gfn := uint64(0); gfn < 8; gfn++ {
			for i := range buf {
				buf[i] = byte(r.Intn(256))
			}
			g.WriteRaw(gfn, buf)
		}
		c := New(g, mmu.NewContext(g, mmu.StyleDirect), EngineOracle)
		for i := 1; i < 32; i++ {
			switch r.Intn(3) {
			case 0: // in-RAM, aligned: loads/stores usually land
				c.X[i] = uint64(r.Intn(pages*isa.PageSize)) &^ 7
			case 1: // small values for shift/branch operands
				c.X[i] = uint64(r.Intn(256))
			default: // arbitrary 64-bit patterns (incl. out-of-RAM VAs)
				c.X[i] = r.Uint64()
			}
		}
		c.PC = 0x1000
		c.Priv = uint8(r.Intn(2))
		c.Deprivileged = r.Intn(2) == 0
		c.CSR.Sstatus = uint64(r.Intn(8)) // SIE/SPIE/SPP bits
		c.CSR.Stvec = 0x2000
		c.CSR.Sepc = 0x3000
		c.CSR.Sip = uint64(r.Intn(8))
		c.CSR.Sie = uint64(r.Intn(8))
		return c
	}
	for op := isa.OpIllegal + 1; int(op) < isa.NumOps; op++ {
		fn := execTable.For(op)
		if fn == nil {
			t.Fatalf("%v: no executor", op)
		}
		for trial := 0; trial < 24; trial++ {
			raw := rng.Uint32()&0x03FF_FFFF | uint32(op)<<26
			switch op {
			case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
				if trial%2 == 0 {
					raw = raw&^0xFFFF | uint32(knownCSRs[rng.Intn(len(knownCSRs))])
				}
			}
			in := isa.Decode(raw)
			seed := int64(op)<<32 | int64(trial)
			a, b := build(seed), build(seed)

			st := fn(a, in, raw)
			ex, done := b.execute(in, raw)

			if (st == stExit) != done {
				t.Fatalf("%v %+v: status %d vs done=%v", op, in, st, done)
			}
			if done && a.pendExit != ex {
				t.Fatalf("%v %+v: exit diverged: %+v vs %+v", op, in, a.pendExit, ex)
			}
			if a.X != b.X || a.PC != b.PC || a.Priv != b.Priv {
				t.Fatalf("%v %+v (raw %#x): register state diverged (pc %#x vs %#x, a0 %d vs %d)",
					op, in, raw, a.PC, b.PC, a.X[10], b.X[10])
			}
			if a.CSR != b.CSR {
				t.Fatalf("%v %+v: CSR state diverged: %+v vs %+v", op, in, a.CSR, b.CSR)
			}
			if a.Cycles != b.Cycles || a.Instret != b.Instret {
				t.Fatalf("%v %+v: time diverged: (cyc=%d ret=%d) vs (cyc=%d ret=%d)",
					op, in, a.Cycles, a.Instret, b.Cycles, b.Instret)
			}
			if a.Stats != b.Stats {
				t.Fatalf("%v %+v: exit stats diverged: %+v vs %+v", op, in, a.Stats, b.Stats)
			}
			if a.MMU.Stats != b.MMU.Stats || a.MMU.TLB.Stats != b.MMU.TLB.Stats {
				t.Fatalf("%v %+v: MMU/TLB stats diverged", op, in)
			}
		}
	}
}
