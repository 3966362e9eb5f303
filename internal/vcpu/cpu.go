package vcpu

import (
	"fmt"
	"math/bits"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// Privilege levels of the (virtual) architecture.
const (
	PrivU uint8 = 0
	PrivS uint8 = 1
)

// Stats counts interpreter activity.
type Stats struct {
	Exits      [NumExitReasons]uint64
	Traps      uint64 // architectural trap entries (direct or injected)
	Interrupts uint64 // interrupts delivered directly (full-privilege mode)
}

// CPU is one GV64 hart.
type CPU struct {
	X    [32]uint64
	PC   uint64
	Priv uint8 // virtual privilege: PrivU or PrivS
	CSR  CSRFile

	Mem *mem.GuestPhys
	MMU *mmu.Context

	// IsMMIO reports whether a guest-physical address belongs to a device
	// window; such accesses exit with ExitMMIO. Nil means no devices.
	IsMMIO func(gpa uint64) bool

	// Deprivileged selects the trap-and-emulate / paravirtual regime: all
	// privileged instructions and guest-visible traps exit to the VMM.
	Deprivileged bool

	// Venv is the value the guest reads from the CSRVenv discovery register.
	Venv uint64

	Costs   Costs
	Cycles  uint64 // simulated time, 1 cycle = 1 ns
	Instret uint64

	// ICache is the decoded-instruction block cache and the chain/trace
	// store built on it. New attaches it exactly when the engine tier is
	// EngineCached or higher; it is nil under EngineOracle.
	ICache *ICache

	// engine is the execution tier, fixed at New: the one switch that
	// decides which fast-path layers run.
	engine Engine

	// pendExit carries the rare Exit out of the threaded executors and the
	// superblock engine so the per-instruction status stays a small int
	// (see dispatch.go).
	pendExit Exit

	// codeGfn is the guest-physical page a superblock is executing from
	// (mem.NoFrame outside blocks): storeExec compares every retired
	// store's page against it so self-modifying code ends the block. The
	// fold lets blocks dispatch stores through the slot's decode-resolved
	// executor like every other instruction; outside blocks the sentinel
	// never matches and the status is plain stOK.
	codeGfn uint64

	// Block-chain arm state: when a chain source retires — a pure
	// control-transfer terminator (isa.IsChainSource) or the page-boundary
	// pseudo-terminator of a superblock — the source slot is parked here.
	// The next fetch either consumes a matching recorded link (skipping the
	// icache map lookup and replaying the memoized translation exactly) or
	// records a fresh link from the real fetch it performs instead. Stale
	// armed state — left over from a trap, interrupt or VM exit landing
	// between arm and fetch — is harmless: consumption proves the link
	// exact (successor PC, page version, translation snapshot) before use,
	// and a mismatched record just parks a latest-wins link that will not
	// validate until the observed successor recurs.
	chainPage  *decodedPage
	chainSlot  uint16
	chainArmed bool

	Stats Stats
}

// Engine is a vCPU execution tier: how much of the host-side fast-path
// stack runs on top of the oracle interpreter. The tiers are ordered, and
// each runs every layer of the tiers below it plus its own:
//
//	EngineOracle  — the reference semantics: per instruction, a full fetch
//	                translation, a guest-RAM read, isa.Decode and the
//	                execute switch (execLoad/execStore, every store through
//	                the unmemoized mem.WriteUint); guest DMA resolves page by
//	                page.
//	EngineCached  — the decoded-instruction cache (icache.go), threaded
//	                dispatch through decode-time-resolved executors
//	                (dispatch.go), the memoized load/store bodies
//	                (loadExec/storeExec over mem's write memo) and the
//	                span-DMA memo.
//	EngineBlocks  — superblock dispatch (superblock.go).
//	EngineChained — block chaining: recorded block→successor links and
//	                cross-page superblock continuation.
//	EngineTraced  — hot traces lowered from chain links (trace.go).
//
// Every tier is architecturally invisible: cycles, instret, registers, CSRs,
// RAM, UART and every simulated statistic are byte-identical to the oracle,
// which the differential suites in internal/guest prove tier by tier. The
// zero value is the full stack.
type Engine uint8

// Engine tiers, full stack first so the zero value runs every layer.
const (
	EngineTraced Engine = iota
	EngineChained
	EngineBlocks
	EngineCached
	EngineOracle
)

// runs reports whether tier e includes layer: a tier runs its own layer and
// every layer below it.
func (e Engine) runs(layer Engine) bool { return e <= layer }

// String names the tier.
func (e Engine) String() string {
	switch e {
	case EngineTraced:
		return "traced"
	case EngineChained:
		return "chained"
	case EngineBlocks:
		return "blocks"
	case EngineCached:
		return "cached"
	case EngineOracle:
		return "oracle"
	}
	return "engine?"
}

// New creates a CPU over the given memory and translation context running
// engine tier e.
func New(m *mem.GuestPhys, ctx *mmu.Context, e Engine) *CPU {
	c := &CPU{Mem: m, MMU: ctx, Costs: DefaultCosts(), engine: e, codeGfn: mem.NoFrame}
	if e.runs(EngineCached) {
		c.ICache = NewICache()
	}
	return c
}

// Reg returns register r (x0 reads as zero by construction).
func (c *CPU) Reg(r uint8) uint64 { return c.X[r] }

// SetReg writes register r, ignoring writes to x0.
func (c *CPU) SetReg(r uint8, v uint64) {
	if r != 0 {
		c.X[r] = v
	}
}

// AddCycles charges VMM-side emulation work to the guest's clock.
func (c *CPU) AddCycles(n uint64) { c.Cycles += n }

// SkipInstr advances PC past a 4-byte instruction the VMM emulated on the
// guest's behalf (MMIO, PT writes, hypercalls).
func (c *CPU) SkipInstr() { c.PC += 4 }

func (c *CPU) exit(e Exit) Exit {
	c.Stats.Exits[e.Reason]++
	return e
}

// vmExit charges the world-switch cost and returns the exit.
func (c *CPU) vmExit(e Exit) Exit {
	c.Cycles += c.Costs.ExitRound
	return c.exit(e)
}

// FinishMMIORead completes a load that exited with ExitMMIO: the VMM passes
// the device's value, and the CPU performs the architectural sign/zero
// extension into the destination register.
func (c *CPU) FinishMMIORead(info MMIOInfo, value uint64) {
	v := value
	switch info.Size {
	case 1:
		if info.Signed {
			v = uint64(int64(int8(v)))
		} else {
			v = uint64(uint8(v))
		}
	case 2:
		if info.Signed {
			v = uint64(int64(int16(v)))
		} else {
			v = uint64(uint16(v))
		}
	case 4:
		if info.Signed {
			v = uint64(int64(int32(v)))
		} else {
			v = uint64(uint32(v))
		}
	}
	c.SetReg(info.Rd, v)
}

// guestTrap delivers a guest-visible trap: directly when fully privileged,
// as an ExitGuestTrap for the VMM to inject when deprivileged.
func (c *CPU) guestTrap(cause, tval uint64) (Exit, bool) {
	if c.Deprivileged {
		return c.vmExit(Exit{Reason: ExitGuestTrap, Cause: cause, Tval: tval}), true
	}
	c.InjectTrap(cause, tval)
	return Exit{}, false
}

// translate wraps the MMU, converting its fault taxonomy into either a guest
// trap or a VM exit. ok is false when an Exit must be returned.
func (c *CPU) translate(va uint64, acc isa.Access) (gpa uint64, ex Exit, ok bool) {
	gpa, refs, fault := c.MMU.Translate(va, acc, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, Exit{}, true
	}
	return c.translateFault(va, acc, fault)
}

// fetchTranslate is translate for instruction fetch via the MMU's memoized
// fetch path: identical cycle charges, faults and statistics, less host work
// while the fetch stream stays on one page.
func (c *CPU) fetchTranslate(va uint64) (gpa uint64, ex Exit, ok bool) {
	gpa, refs, fault := c.MMU.TranslateFetch(va, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, Exit{}, true
	}
	return c.translateFault(va, isa.AccExec, fault)
}

// translateData is translate for loads and stores via the MMU's memoized
// data path: identical cycle charges, faults and statistics, less host work
// while accesses revisit recently used pages.
func (c *CPU) translateData(va uint64, acc isa.Access) (gpa uint64, ex Exit, ok bool) {
	gpa, refs, fault := c.MMU.TranslateData(va, acc, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault == nil {
		return gpa, Exit{}, true
	}
	return c.translateFault(va, acc, fault)
}

func (c *CPU) translateFault(va uint64, acc isa.Access, fault *mmu.Fault) (gpa uint64, ex Exit, ok bool) {
	switch fault.Kind {
	case mmu.FaultGuest:
		e, exited := c.guestTrap(fault.Cause, va)
		if exited {
			return 0, e, false
		}
		// Trap delivered inside the guest; instruction restarts at the
		// handler. Signal the caller to continue the loop.
		return 0, Exit{Reason: ExitNone}, false
	case mmu.FaultShadowMiss:
		return 0, c.vmExit(Exit{Reason: ExitShadowMiss, VA: va, Access: acc}), false
	default: // mmu.FaultHost
		return 0, c.vmExit(Exit{Reason: ExitHostFault, VA: va, Access: acc, Mem: fault.Mem}), false
	}
}

// memFaultExit converts a guest-physical access fault on a data access.
func (c *CPU) memFaultExit(va uint64, acc isa.Access, f *mem.Fault) Exit {
	return c.vmExit(Exit{Reason: ExitHostFault, VA: va, Access: acc, Mem: f})
}

// Run interprets instructions until the cycle budget is exhausted or an exit
// condition arises. The budget is a cycle count relative to the current
// clock.
//
//govisor:worker
func (c *CPU) Run(budget uint64) Exit {
	deadline := c.Cycles + budget
	for {
		if c.Cycles >= deadline {
			return c.exit(Exit{Reason: ExitQuantum})
		}
		// Timer: STIP latches when the clock passes STIMECMP.
		if cmp := c.CSR.Stimecmp; cmp != 0 && c.Cycles >= cmp && c.CSR.Sip&(1<<isa.IntTimer) == 0 {
			c.CSR.Sip |= 1 << isa.IntTimer
		}
		if irq := c.PendingInterrupt(); irq != 0 {
			if c.Deprivileged {
				return c.vmExit(Exit{Reason: ExitIntrWindow})
			}
			c.Stats.Interrupts++
			c.InjectTrap(isa.CauseInterrupt|irq, 0)
			continue
		}

		// Fetch. Above the oracle, fetches that stay on a predecoded page
		// with an unchanged content version skip the guest-RAM read and
		// isa.Decode; translation still runs (via the MMU's exact memoized
		// fetch path) so the TLB's LRU state, the walk cycle charges and
		// every statistic evolve identically either way.
		if c.PC&3 != 0 {
			if e, exited := c.guestTrap(isa.CauseInstrMisaligned, c.PC); exited {
				return e
			}
			continue
		}
		var in isa.Inst
		var raw uint32
		var fn execFn // nil on the oracle: execute's switch runs instead
		if c.engine.runs(EngineCached) {
			ic := c.ICache
			var p *decodedPage
			var i, gfn, gpa uint64
			var recSrc *decodedPage
			var recSlot uint16
			var hitLink *chainLink
			if c.chainArmed {
				// Chain consume (only the chained tiers ever arm a slot): a
				// link recorded for the slot that just redirected control
				// proves this fetch's outcome — the observed successor PC
				// recurs, the target page's content version is unchanged,
				// and the translation snapshot revalidates (SATP, privilege,
				// TLB generation) via ChainFetch, which replays exactly the
				// bookkeeping the real TranslateFetch below would perform —
				// so the map lookup and full translation are skipped.
				src, slot := c.chainPage, c.chainSlot
				c.chainArmed = false
				if l := src.chainAt(slot); l != nil && l.pc == c.PC &&
					c.Mem.PageVersion(l.gfn) == l.page.ver &&
					c.MMU.ChainFetch(&l.snap, c.PC, c.Priv == PrivU) {
					p, i, gfn = l.page, uint64(l.tslot), l.gfn
					hitLink = l
					ic.noteChainHit(gfn, p)
				} else {
					ic.Stats.ChainMisses++
					recSrc, recSlot = src, slot
				}
			}
			if p == nil {
				var ex Exit
				var ok bool
				gpa, ex, ok = c.fetchTranslate(c.PC)
				if !ok {
					if ex.Reason == ExitNone {
						continue
					}
					return ex
				}
				gfn = gpa >> isa.PageShift
				i = (gpa & isa.PageMask) >> 2
				p = ic.lookup(c.Mem, gfn)
				if p != nil && recSrc != nil {
					// Chain record: the real fetch just resolved the armed
					// slot's successor; park it with the translation
					// snapshot, latest-wins.
					ic.setChain(recSrc, recSlot, c.PC, p, gfn, uint16(i), c.MMU.SnapFetch())
				}
			}
			if p != nil {
				// Superblock dispatch: a straight-line run of ≥2 decoded
				// instructions executes as one unit when no event boundary
				// (quantum, timer latch, interrupt window) can land inside
				// its cycle span; otherwise fall through to the exact
				// per-instruction path below.
				if p.blkLen[i] > 1 && c.engine.runs(EngineBlocks) {
					if hitLink != nil && c.engine == EngineTraced {
						// Trace layer (trace.go): a validated chain consume
						// is the only way in. A link that already carries a
						// trace dispatches it (one entry check, whole-span
						// admission, batched run); otherwise the consume
						// heats the link toward promotion.
						if tr := hitLink.tr; tr != nil {
							ex, done, dispatched := c.runTrace(tr, deadline)
							if dispatched {
								if done {
									return ex
								}
								continue
							}
						} else if hitLink.heat < traceHotThreshold {
							hitLink.heat++
							if hitLink.heat == traceHotThreshold {
								c.formTrace(hitLink)
							}
						}
					}
					ex, done, dispatched := c.runBlock(p, i, gfn, deadline)
					if dispatched {
						if done {
							return ex
						}
						continue
					}
				}
				// Lazy slot decode, spelled out here because the compiler
				// will not inline it as a method and this is the hottest
				// line in the simulator. The threaded executor is resolved
				// once, here, so steady-state fetches load a direct func
				// pointer instead of re-inspecting the opcode.
				if p.valid[i>>6]&(1<<(i&63)) == 0 {
					p.ins[i] = isa.Decode(p.raw[i])
					p.fn[i] = execTable.For(p.ins[i].Op)
					p.valid[i>>6] |= 1 << (i & 63)
				}
				in, raw, fn = p.ins[i], p.raw[i], p.fn[i]
				if isa.IsChainSource(in.Op) && c.engine.runs(EngineChained) {
					// Arm the slot so the post-redirect fetch can consume or
					// record its chain link. Chain sources never trap and
					// never exit, so the arm is consumed on the very next
					// loop iteration in the common case.
					c.chainPage, c.chainSlot, c.chainArmed = p, uint16(i), true
				}
			} else {
				word, e, st := c.fetchWord(gpa)
				if st == fetchExit {
					return e
				}
				if st == fetchRetry {
					continue
				}
				raw = uint32(word)
				in = isa.Decode(raw)
				fn = execTable.For(in.Op)
				ic.fill(c.Mem, gfn)
				if recSrc != nil {
					ic.setChain(recSrc, recSlot, c.PC, ic.cur, gfn, uint16(i), c.MMU.SnapFetch())
				}
			}
		} else {
			gpa, ex, ok := c.translate(c.PC, isa.AccExec)
			if !ok {
				if ex.Reason == ExitNone {
					continue
				}
				return ex
			}
			word, e, st := c.fetchWord(gpa)
			if st == fetchExit {
				return e
			}
			if st == fetchRetry {
				continue
			}
			raw = uint32(word)
			in = isa.Decode(raw)
		}
		if !in.Op.Valid() {
			if e, exited := c.guestTrap(isa.CauseIllegal, uint64(raw)); exited {
				return e
			}
			continue
		}
		c.Cycles += c.Costs.Instr
		c.Instret++
		if fn == nil {
			// The oracle's dispatch switch. (Above the oracle fn is never
			// nil for a valid opcode — the table is total, see FuzzDecode.)
			if ex, done := c.execute(in, raw); done {
				return ex
			}
		} else if fn(c, in, raw) == stExit {
			return c.pendExit
		}
	}
}

// fetchWord outcomes.
const (
	fetchOK    = iota // word holds the instruction
	fetchRetry        // a guest trap was delivered in place; restart the loop
	fetchExit         // Run must return the Exit
)

// fetchWord performs the uncached instruction read at gpa: the executing-
// from-device-space check and the guest-physical read, with the same fault
// taxonomy the interpreter has always had.
func (c *CPU) fetchWord(gpa uint64) (uint64, Exit, int) {
	if c.IsMMIO != nil && !c.Mem.Contains(gpa) && c.IsMMIO(gpa) {
		// Executing out of device space is an access fault.
		if e, exited := c.guestTrap(isa.CauseInstrAccess, c.PC); exited {
			return 0, e, fetchExit
		}
		return 0, Exit{}, fetchRetry
	}
	word, f := c.Mem.ReadUint(gpa, 4)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			if e, exited := c.guestTrap(isa.CauseInstrAccess, c.PC); exited {
				return 0, e, fetchExit
			}
			return 0, Exit{}, fetchRetry
		}
		return 0, c.memFaultExit(c.PC, isa.AccExec, f), fetchExit
	}
	return word, Exit{}, fetchOK
}

// execute runs one decoded instruction. done reports that Run must return ex.
func (c *CPU) execute(in isa.Inst, raw uint32) (ex Exit, done bool) {
	switch in.Op {
	// ---- register-register ALU ----
	case isa.OpADD:
		c.SetReg(in.Rd, c.X[in.Rs1]+c.X[in.Rs2])
	case isa.OpSUB:
		c.SetReg(in.Rd, c.X[in.Rs1]-c.X[in.Rs2])
	case isa.OpAND:
		c.SetReg(in.Rd, c.X[in.Rs1]&c.X[in.Rs2])
	case isa.OpOR:
		c.SetReg(in.Rd, c.X[in.Rs1]|c.X[in.Rs2])
	case isa.OpXOR:
		c.SetReg(in.Rd, c.X[in.Rs1]^c.X[in.Rs2])
	case isa.OpSLL:
		c.SetReg(in.Rd, c.X[in.Rs1]<<(c.X[in.Rs2]&63))
	case isa.OpSRL:
		c.SetReg(in.Rd, c.X[in.Rs1]>>(c.X[in.Rs2]&63))
	case isa.OpSRA:
		c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(c.X[in.Rs2]&63)))
	case isa.OpSLT:
		c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(c.X[in.Rs2])))
	case isa.OpSLTU:
		c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < c.X[in.Rs2]))
	case isa.OpMUL:
		c.SetReg(in.Rd, c.X[in.Rs1]*c.X[in.Rs2])
	case isa.OpMULH:
		hi, _ := mulh64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))
		c.SetReg(in.Rd, uint64(hi))
	case isa.OpDIV:
		c.SetReg(in.Rd, uint64(div64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	case isa.OpDIVU:
		c.SetReg(in.Rd, divu64(c.X[in.Rs1], c.X[in.Rs2]))
	case isa.OpREM:
		c.SetReg(in.Rd, uint64(rem64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	case isa.OpREMU:
		c.SetReg(in.Rd, remu64(c.X[in.Rs1], c.X[in.Rs2]))

	// ---- immediates ----
	case isa.OpADDI:
		c.SetReg(in.Rd, c.X[in.Rs1]+uint64(int64(in.Imm)))
	case isa.OpANDI:
		c.SetReg(in.Rd, c.X[in.Rs1]&uint64(uint32(in.Imm)))
	case isa.OpORI:
		c.SetReg(in.Rd, c.X[in.Rs1]|uint64(uint32(in.Imm)))
	case isa.OpXORI:
		c.SetReg(in.Rd, c.X[in.Rs1]^uint64(uint32(in.Imm)))
	case isa.OpSLLI:
		c.SetReg(in.Rd, c.X[in.Rs1]<<(uint(in.Imm)&63))
	case isa.OpSRLI:
		c.SetReg(in.Rd, c.X[in.Rs1]>>(uint(in.Imm)&63))
	case isa.OpSRAI:
		c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(uint(in.Imm)&63)))
	case isa.OpSLTI:
		c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(in.Imm)))
	case isa.OpSLTIU:
		c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < uint64(int64(in.Imm))))
	case isa.OpLUI:
		c.SetReg(in.Rd, uint64(int64(in.Imm))<<16)

	// ---- loads / stores ----
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU, isa.OpLD:
		return c.execLoad(in)
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
		return c.execStore(in)

	// ---- control flow ----
	case isa.OpBEQ:
		return c.branch(in, c.X[in.Rs1] == c.X[in.Rs2])
	case isa.OpBNE:
		return c.branch(in, c.X[in.Rs1] != c.X[in.Rs2])
	case isa.OpBLT:
		return c.branch(in, int64(c.X[in.Rs1]) < int64(c.X[in.Rs2]))
	case isa.OpBGE:
		return c.branch(in, int64(c.X[in.Rs1]) >= int64(c.X[in.Rs2]))
	case isa.OpBLTU:
		return c.branch(in, c.X[in.Rs1] < c.X[in.Rs2])
	case isa.OpBGEU:
		return c.branch(in, c.X[in.Rs1] >= c.X[in.Rs2])
	case isa.OpJAL:
		c.SetReg(in.Rd, c.PC+4)
		c.PC += uint64(int64(in.Imm))
		return Exit{}, false
	case isa.OpJALR:
		target := (c.X[in.Rs1] + uint64(int64(in.Imm))) &^ 1
		c.SetReg(in.Rd, c.PC+4)
		c.PC = target
		return Exit{}, false

	// ---- system ----
	case isa.OpECALL:
		if !c.Deprivileged && c.Priv == PrivU {
			// Native/HW-assist syscall: vectors straight into the guest
			// kernel without VMM involvement.
			c.InjectTrap(isa.CauseEcallU, 0)
			return Exit{}, false
		}
		return c.vmExit(Exit{Reason: ExitEcall, From: c.Priv}), true
	case isa.OpEBREAK:
		if e, exited := c.guestTrap(isa.CauseBreakpoint, c.PC); exited {
			return e, true
		}
		return Exit{}, false
	case isa.OpSRET:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
		c.ExecuteSRET()
		return Exit{}, false
	case isa.OpWFI:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		if c.CSR.Sip&c.CSR.Sie != 0 {
			return Exit{}, false // already pending: WFI is a no-op
		}
		return c.vmExit(Exit{Reason: ExitWFI}), true
	case isa.OpFENCE:
		// No reordering to model.
	case isa.OpSFENCE:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
		c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
		return c.execCSR(in, raw)
	case isa.OpHALT:
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		c.PC += 4
		return c.exit(Exit{Reason: ExitHalt, Code: uint16(in.Imm)}), true
	default:
		return c.illegal(raw)
	}
	c.PC += 4
	return Exit{}, false
}

func (c *CPU) illegal(raw uint32) (Exit, bool) {
	if e, exited := c.guestTrap(isa.CauseIllegal, uint64(raw)); exited {
		return e, true
	}
	return Exit{}, false
}

func (c *CPU) branch(in isa.Inst, taken bool) (Exit, bool) {
	if taken {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return Exit{}, false
}

func loadMeta(op isa.Op) (size int, signed bool) {
	switch op {
	case isa.OpLB:
		return 1, true
	case isa.OpLBU:
		return 1, false
	case isa.OpLH:
		return 2, true
	case isa.OpLHU:
		return 2, false
	case isa.OpLW:
		return 4, true
	case isa.OpLWU:
		return 4, false
	default:
		return 8, false
	}
}

func storeSize(op isa.Op) int {
	switch op {
	case isa.OpSB:
		return 1
	case isa.OpSH:
		return 2
	case isa.OpSW:
		return 4
	default:
		return 8
	}
}

func (c *CPU) execLoad(in isa.Inst) (Exit, bool) {
	size, signed := loadMeta(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	if va&uint64(size-1) != 0 {
		if e, exited := c.guestTrap(isa.CauseLoadMisaligned, va); exited {
			return e, true
		}
		return Exit{}, false
	}
	gpa, ex, ok := c.translateData(va, isa.AccRead)
	if !ok {
		return ex, ex.Reason != ExitNone
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		return c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Rd: in.Rd, Signed: signed,
		}}), true
	}
	c.Cycles += c.Costs.MemAccess
	v, f := c.Mem.ReadUint(gpa, size)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			if e, exited := c.guestTrap(isa.CauseLoadAccess, va); exited {
				return e, true
			}
			return Exit{}, false
		}
		return c.memFaultExit(va, isa.AccRead, f), true
	}
	if signed {
		switch size {
		case 1:
			v = uint64(int64(int8(v)))
		case 2:
			v = uint64(int64(int16(v)))
		case 4:
			v = uint64(int64(int32(v)))
		}
	}
	c.SetReg(in.Rd, v)
	c.PC += 4
	return Exit{}, false
}

func (c *CPU) execStore(in isa.Inst) (Exit, bool) {
	size := storeSize(in.Op)
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	val := c.X[in.Rs2]
	if va&uint64(size-1) != 0 {
		if e, exited := c.guestTrap(isa.CauseStoreMisaligned, va); exited {
			return e, true
		}
		return Exit{}, false
	}
	gpa, ex, ok := c.translateData(va, isa.AccWrite)
	if !ok {
		return ex, ex.Reason != ExitNone
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		return c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Write: true, Value: val,
		}}), true
	}
	c.Cycles += c.Costs.MemAccess
	if f := c.Mem.WriteUint(gpa, size, val); f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			if e, exited := c.guestTrap(isa.CauseStoreAccess, va); exited {
				return e, true
			}
			return Exit{}, false
		}
		return c.memFaultExit(va, isa.AccWrite, f), true
	}
	c.PC += 4
	return Exit{}, false
}

func (c *CPU) execCSR(in isa.Inst, raw uint32) (Exit, bool) {
	addr := uint16(in.Imm)
	// Unprivileged counters execute directly in every regime.
	if !isa.IsUserCSR(addr) {
		if c.Priv != PrivS {
			return c.illegal(raw)
		}
		if c.Deprivileged {
			return c.vmExit(Exit{Reason: ExitPriv, Inst: in}), true
		}
	}
	old, known := c.ReadCSR(addr)
	if !known {
		return c.illegal(raw)
	}
	src := c.X[in.Rs1]
	var newVal uint64
	write := true
	switch in.Op {
	case isa.OpCSRRW:
		newVal = src
	case isa.OpCSRRS:
		newVal = old | src
		write = in.Rs1 != 0
	default: // CSRRC
		newVal = old &^ src
		write = in.Rs1 != 0
	}
	if write {
		if !c.WriteCSR(addr, newVal) {
			return c.illegal(raw)
		}
	}
	c.SetReg(in.Rd, old)
	c.PC += 4
	return Exit{}, false
}

// EmulatePrivileged is the VMM-side emulation of an instruction that exited
// with ExitPriv: it applies the same architectural semantics the hardware
// would, against the virtual CSR file, and advances the PC. The emulation
// work itself is charged separately by the caller.
func (c *CPU) EmulatePrivileged(in isa.Inst) error {
	switch in.Op {
	case isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC:
		addr := uint16(in.Imm)
		old, known := c.ReadCSR(addr)
		if !known {
			return fmt.Errorf("vcpu: emulate access to unknown CSR %#x", addr)
		}
		src := c.X[in.Rs1]
		newVal := src
		write := true
		switch in.Op {
		case isa.OpCSRRS:
			newVal = old | src
			write = in.Rs1 != 0
		case isa.OpCSRRC:
			newVal = old &^ src
			write = in.Rs1 != 0
		}
		if write && !c.WriteCSR(addr, newVal) {
			return fmt.Errorf("vcpu: emulated write to read-only CSR %s", isa.CSRName(addr))
		}
		c.SetReg(in.Rd, old)
		c.PC += 4
		return nil
	case isa.OpSRET:
		c.ExecuteSRET()
		return nil
	case isa.OpSFENCE:
		c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
		c.PC += 4
		return nil
	default:
		return fmt.Errorf("vcpu: cannot emulate %s", isa.Disasm(in))
	}
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mulh64(a, b int64) (hi, lo int64) {
	uhi, ulo := bits.Mul64(uint64(a), uint64(b))
	h := int64(uhi)
	if a < 0 {
		h -= b
	}
	if b < 0 {
		h -= a
	}
	return h, int64(ulo)
}

func div64(a, b int64) int64 {
	switch {
	case b == 0:
		return -1
	case a == -1<<63 && b == -1:
		return a
	default:
		return a / b
	}
}

func rem64(a, b int64) int64 {
	switch {
	case b == 0:
		return a
	case a == -1<<63 && b == -1:
		return 0
	default:
		return a % b
	}
}

func divu64(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remu64(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}
