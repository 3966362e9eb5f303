package vcpu

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
)

// Threaded dispatch: every opcode resolves once, at decode/predecode time,
// to an executor function, and the hot loop calls the resolved pointer per
// retired instruction instead of walking the `switch in.Op` in execute.
// Executors return a small int status; the rare Exit travels out of line
// through c.pendExit, so the no-exit fast path never materializes the large
// Exit struct. Every tier from EngineCached up dispatches this way; the
// original switch (execute, cpu.go) is the oracle tier's, and the
// differential suites prove the two byte-identical in guest state, cycle
// accounting and statistics.

// Executor statuses. Shared between the threaded executors and the
// superblock engine: both keep the per-instruction result a small int and
// route the rare Exit through c.pendExit.
const (
	stOK   = iota // retired; continue
	stTrap        // a guest trap redirected control in place
	stExit        // Run must return c.pendExit
	stSMC         // retired, but the store hit the executing code page
)

// execFn executes one decoded instruction. raw is the original instruction
// word (needed for the exact stval of illegal-instruction traps: Encode∘
// Decode does not preserve padding bits).
type execFn func(c *CPU, in isa.Inst, raw uint32) int

// execTable resolves every valid opcode to its executor. Indexed composite
// literal so the mapping reads like the opcode declaration; completeness
// (no valid opcode left nil) is pinned by TestExecTableComplete and
// FuzzDecode via ExecutorResolved.
var execTable = isa.ExecTable[execFn]{
	isa.OpADD: execADD, isa.OpSUB: execSUB, isa.OpAND: execAND,
	isa.OpOR: execOR, isa.OpXOR: execXOR, isa.OpSLL: execSLL,
	isa.OpSRL: execSRL, isa.OpSRA: execSRA, isa.OpSLT: execSLT,
	isa.OpSLTU: execSLTU, isa.OpMUL: execMUL, isa.OpMULH: execMULH,
	isa.OpDIV: execDIV, isa.OpDIVU: execDIVU, isa.OpREM: execREM,
	isa.OpREMU: execREMU,

	isa.OpADDI: execADDI, isa.OpANDI: execANDI, isa.OpORI: execORI,
	isa.OpXORI: execXORI, isa.OpSLLI: execSLLI, isa.OpSRLI: execSRLI,
	isa.OpSRAI: execSRAI, isa.OpSLTI: execSLTI, isa.OpSLTIU: execSLTIU,
	isa.OpLUI: execLUI,

	isa.OpLB: execLB, isa.OpLBU: execLBU, isa.OpLH: execLH,
	isa.OpLHU: execLHU, isa.OpLW: execLW, isa.OpLWU: execLWU,
	isa.OpLD: execLD,

	isa.OpSB: execSB, isa.OpSH: execSH, isa.OpSW: execSW, isa.OpSD: execSD,

	isa.OpBEQ: execBEQ, isa.OpBNE: execBNE, isa.OpBLT: execBLT,
	isa.OpBGE: execBGE, isa.OpBLTU: execBLTU, isa.OpBGEU: execBGEU,

	isa.OpJAL: execJAL, isa.OpJALR: execJALR,

	isa.OpECALL: execECALL, isa.OpEBREAK: execEBREAK, isa.OpSRET: execSRET,
	isa.OpWFI: execWFI, isa.OpFENCE: execFENCE, isa.OpSFENCE: execSFENCE,
	isa.OpCSRRW: execCSROp, isa.OpCSRRS: execCSROp, isa.OpCSRRC: execCSROp,
	isa.OpHALT: execHALT,
}

// ExecutorResolved reports whether op resolves to a threaded-dispatch
// executor. Exported for the ISA decode fuzzer, which asserts the table is
// total over every decodable instruction so table/switch completeness can
// never drift.
func ExecutorResolved(op isa.Op) bool { return execTable.For(op) != nil }

// guestTrapStatus delivers a guest trap from an executor or a superblock.
func (c *CPU) guestTrapStatus(cause, tval uint64) int {
	if e, exited := c.guestTrap(cause, tval); exited {
		c.pendExit = e
		return stExit
	}
	return stTrap
}

// illegalStatus is guestTrapStatus for illegal-instruction traps.
func (c *CPU) illegalStatus(raw uint32) int {
	return c.guestTrapStatus(isa.CauseIllegal, uint64(raw))
}

// faultStatus is translateFault with executor-status results.
func (c *CPU) faultStatus(va uint64, acc isa.Access, fault *mmu.Fault) int {
	switch fault.Kind {
	case mmu.FaultGuest:
		return c.guestTrapStatus(fault.Cause, va)
	case mmu.FaultShadowMiss:
		c.pendExit = c.vmExit(Exit{Reason: ExitShadowMiss, VA: va, Access: acc})
		return stExit
	default: // mmu.FaultHost
		c.pendExit = c.vmExit(Exit{Reason: ExitHostFault, VA: va, Access: acc, Mem: fault.Mem})
		return stExit
	}
}

// ---- register-register ALU ----

func execADD(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]+c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execSUB(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]-c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execAND(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]&c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execOR(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]|c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execXOR(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]^c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execSLL(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]<<(c.X[in.Rs2]&63))
	c.PC += 4
	return stOK
}

func execSRL(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]>>(c.X[in.Rs2]&63))
	c.PC += 4
	return stOK
}

func execSRA(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(c.X[in.Rs2]&63)))
	c.PC += 4
	return stOK
}

func execSLT(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(c.X[in.Rs2])))
	c.PC += 4
	return stOK
}

func execSLTU(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < c.X[in.Rs2]))
	c.PC += 4
	return stOK
}

func execMUL(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]*c.X[in.Rs2])
	c.PC += 4
	return stOK
}

func execMULH(c *CPU, in isa.Inst, _ uint32) int {
	hi, _ := mulh64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))
	c.SetReg(in.Rd, uint64(hi))
	c.PC += 4
	return stOK
}

func execDIV(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, uint64(div64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	c.PC += 4
	return stOK
}

func execDIVU(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, divu64(c.X[in.Rs1], c.X[in.Rs2]))
	c.PC += 4
	return stOK
}

func execREM(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, uint64(rem64(int64(c.X[in.Rs1]), int64(c.X[in.Rs2]))))
	c.PC += 4
	return stOK
}

func execREMU(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, remu64(c.X[in.Rs1], c.X[in.Rs2]))
	c.PC += 4
	return stOK
}

// ---- immediates ----

func execADDI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]+uint64(int64(in.Imm)))
	c.PC += 4
	return stOK
}

func execANDI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]&uint64(uint32(in.Imm)))
	c.PC += 4
	return stOK
}

func execORI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]|uint64(uint32(in.Imm)))
	c.PC += 4
	return stOK
}

func execXORI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]^uint64(uint32(in.Imm)))
	c.PC += 4
	return stOK
}

func execSLLI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]<<(uint(in.Imm)&63))
	c.PC += 4
	return stOK
}

func execSRLI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.X[in.Rs1]>>(uint(in.Imm)&63))
	c.PC += 4
	return stOK
}

func execSRAI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, uint64(int64(c.X[in.Rs1])>>(uint(in.Imm)&63)))
	c.PC += 4
	return stOK
}

func execSLTI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, boolTo64(int64(c.X[in.Rs1]) < int64(in.Imm)))
	c.PC += 4
	return stOK
}

func execSLTIU(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, boolTo64(c.X[in.Rs1] < uint64(int64(in.Imm))))
	c.PC += 4
	return stOK
}

func execLUI(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, uint64(int64(in.Imm))<<16)
	c.PC += 4
	return stOK
}

// ---- loads / stores ----
//
// Decode-time resolution bakes the access width and extension into the
// executor, so the per-instruction path skips the loadMeta/storeSize
// switches; the shared bodies (loadExec/storeExec) are the same ones the
// superblock engine runs, and the oracle's execLoad/execStore stay in
// lockstep with them under the differential suites.

func execLB(c *CPU, in isa.Inst, _ uint32) int  { return c.loadExec(in, 1, true) }
func execLBU(c *CPU, in isa.Inst, _ uint32) int { return c.loadExec(in, 1, false) }
func execLH(c *CPU, in isa.Inst, _ uint32) int  { return c.loadExec(in, 2, true) }
func execLHU(c *CPU, in isa.Inst, _ uint32) int { return c.loadExec(in, 2, false) }
func execLW(c *CPU, in isa.Inst, _ uint32) int  { return c.loadExec(in, 4, true) }
func execLWU(c *CPU, in isa.Inst, _ uint32) int { return c.loadExec(in, 4, false) }
func execLD(c *CPU, in isa.Inst, _ uint32) int  { return c.loadExec(in, 8, false) }

func execSB(c *CPU, in isa.Inst, _ uint32) int { return c.storeExec(in, 1) }
func execSH(c *CPU, in isa.Inst, _ uint32) int { return c.storeExec(in, 2) }
func execSW(c *CPU, in isa.Inst, _ uint32) int { return c.storeExec(in, 4) }
func execSD(c *CPU, in isa.Inst, _ uint32) int { return c.storeExec(in, 8) }

// loadExec is the load body shared by the threaded executors and the
// superblock engine: semantics, cycle charges, fault taxonomy and statistics
// identical to the oracle's execLoad — any change here must land there too
// (and vice versa); the differential suites enforce the lockstep.
//
//govisor:pair execLoad
func (c *CPU) loadExec(in isa.Inst, size int, signed bool) int {
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	if va&uint64(size-1) != 0 {
		return c.guestTrapStatus(isa.CauseLoadMisaligned, va)
	}
	gpa, refs, fault := c.MMU.TranslateData(va, isa.AccRead, c.Priv == PrivU)
	c.Cycles += uint64(refs) * c.Costs.PTRef
	if fault != nil {
		return c.faultStatus(va, isa.AccRead, fault)
	}
	// Memoized RAM verdict: a read-memo hit proves the page is inside guest
	// RAM, so the Contains/IsMMIO range checks fold into the probe and the
	// value comes straight from the cached page — exactly what the full
	// path below computes for an in-RAM address.
	if v, ok := c.Mem.ReadUintFast(gpa, size); ok {
		c.Cycles += c.Costs.MemAccess
		c.SetReg(in.Rd, extendLoad(v, size, signed))
		c.PC += 4
		return stOK
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		c.pendExit = c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Rd: in.Rd, Signed: signed,
		}})
		return stExit
	}
	c.Cycles += c.Costs.MemAccess
	v, f := c.Mem.ReadUint(gpa, size)
	if f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			return c.guestTrapStatus(isa.CauseLoadAccess, va)
		}
		c.pendExit = c.memFaultExit(va, isa.AccRead, f)
		return stExit
	}
	c.SetReg(in.Rd, extendLoad(v, size, signed))
	c.PC += 4
	return stOK
}

// extendLoad applies the architectural sign/zero extension of a load.
func extendLoad(v uint64, size int, signed bool) uint64 {
	if signed {
		switch size {
		case 1:
			return uint64(int64(int8(v)))
		case 2:
			return uint64(int64(int16(v)))
		case 4:
			return uint64(int64(int32(v)))
		}
	}
	return v
}

// storeExec is the store body shared by the threaded executors and the
// superblock engine, over the write memo (same lockstep contract with the
// oracle's execStore as loadExec). A retired store into the executing
// superblock's code page (c.codeGfn, mem.NoFrame outside blocks) returns
// stSMC so the block ends; every other consumer treats stSMC exactly like
// stOK.
//
//govisor:pair execStore
func (c *CPU) storeExec(in isa.Inst, size int) int {
	va := c.X[in.Rs1] + uint64(int64(in.Imm))
	val := c.X[in.Rs2]
	if va&uint64(size-1) != 0 {
		return c.guestTrapStatus(isa.CauseStoreMisaligned, va)
	}
	gpa, refs, fault := c.MMU.TranslateWrite(va, c.Priv == PrivU)
	if refs != 0 {
		c.Cycles += uint64(refs) * c.Costs.PTRef
	}
	if fault != nil {
		return c.faultStatus(va, isa.AccWrite, fault)
	}
	if c.Mem.WriteUintFast(gpa, size, val) {
		// Memoized store: the memo proves the page is in RAM (so the
		// Contains/IsMMIO checks fold into the probe), present, writable,
		// private and already dirty — the write itself is the only effect
		// the slow path below would have had.
		c.Cycles += c.Costs.MemAccess
		c.PC += 4
		if gpa>>isa.PageShift == c.codeGfn {
			return stSMC
		}
		return stOK
	}
	if !c.Mem.Contains(gpa) && c.IsMMIO != nil && c.IsMMIO(gpa) {
		c.PC += 4
		c.pendExit = c.vmExit(Exit{Reason: ExitMMIO, MMIO: MMIOInfo{
			GPA: gpa, Size: uint8(size), Write: true, Value: val,
		}})
		return stExit
	}
	c.Cycles += c.Costs.MemAccess
	if f := c.Mem.WriteUintFill(gpa, size, val); f != nil {
		if f.Kind == mem.FaultBeyondRAM {
			return c.guestTrapStatus(isa.CauseStoreAccess, va)
		}
		c.pendExit = c.memFaultExit(va, isa.AccWrite, f)
		return stExit
	}
	c.PC += 4
	if gpa>>isa.PageShift == c.codeGfn {
		return stSMC
	}
	return stOK
}

// ---- control flow ----

func execBEQ(c *CPU, in isa.Inst, _ uint32) int {
	if c.X[in.Rs1] == c.X[in.Rs2] {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execBNE(c *CPU, in isa.Inst, _ uint32) int {
	if c.X[in.Rs1] != c.X[in.Rs2] {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execBLT(c *CPU, in isa.Inst, _ uint32) int {
	if int64(c.X[in.Rs1]) < int64(c.X[in.Rs2]) {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execBGE(c *CPU, in isa.Inst, _ uint32) int {
	if int64(c.X[in.Rs1]) >= int64(c.X[in.Rs2]) {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execBLTU(c *CPU, in isa.Inst, _ uint32) int {
	if c.X[in.Rs1] < c.X[in.Rs2] {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execBGEU(c *CPU, in isa.Inst, _ uint32) int {
	if c.X[in.Rs1] >= c.X[in.Rs2] {
		c.PC += uint64(int64(in.Imm))
	} else {
		c.PC += 4
	}
	return stOK
}

func execJAL(c *CPU, in isa.Inst, _ uint32) int {
	c.SetReg(in.Rd, c.PC+4)
	c.PC += uint64(int64(in.Imm))
	return stOK
}

func execJALR(c *CPU, in isa.Inst, _ uint32) int {
	target := (c.X[in.Rs1] + uint64(int64(in.Imm))) &^ 1
	c.SetReg(in.Rd, c.PC+4)
	c.PC = target
	return stOK
}

// ---- system ----

func execECALL(c *CPU, _ isa.Inst, _ uint32) int {
	if !c.Deprivileged && c.Priv == PrivU {
		// Native/HW-assist syscall: vectors straight into the guest kernel.
		c.InjectTrap(isa.CauseEcallU, 0)
		return stTrap
	}
	c.pendExit = c.vmExit(Exit{Reason: ExitEcall, From: c.Priv})
	return stExit
}

func execEBREAK(c *CPU, _ isa.Inst, _ uint32) int {
	return c.guestTrapStatus(isa.CauseBreakpoint, c.PC)
}

func execSRET(c *CPU, in isa.Inst, raw uint32) int {
	if c.Priv != PrivS {
		return c.illegalStatus(raw)
	}
	if c.Deprivileged {
		c.pendExit = c.vmExit(Exit{Reason: ExitPriv, Inst: in})
		return stExit
	}
	c.ExecuteSRET()
	return stTrap
}

func execWFI(c *CPU, _ isa.Inst, raw uint32) int {
	if c.Priv != PrivS {
		return c.illegalStatus(raw)
	}
	c.PC += 4
	if c.CSR.Sip&c.CSR.Sie != 0 {
		return stOK // already pending: WFI is a no-op
	}
	c.pendExit = c.vmExit(Exit{Reason: ExitWFI})
	return stExit
}

func execFENCE(c *CPU, _ isa.Inst, _ uint32) int {
	// No reordering to model.
	c.PC += 4
	return stOK
}

func execSFENCE(c *CPU, in isa.Inst, raw uint32) int {
	if c.Priv != PrivS {
		return c.illegalStatus(raw)
	}
	if c.Deprivileged {
		c.pendExit = c.vmExit(Exit{Reason: ExitPriv, Inst: in})
		return stExit
	}
	c.MMU.Flush(c.X[in.Rs1], uint16(c.X[in.Rs2]))
	c.PC += 4
	return stOK
}

func execCSROp(c *CPU, in isa.Inst, raw uint32) int {
	addr := uint16(in.Imm)
	// Unprivileged counters execute directly in every regime.
	if !isa.IsUserCSR(addr) {
		if c.Priv != PrivS {
			return c.illegalStatus(raw)
		}
		if c.Deprivileged {
			c.pendExit = c.vmExit(Exit{Reason: ExitPriv, Inst: in})
			return stExit
		}
	}
	old, known := c.ReadCSR(addr)
	if !known {
		return c.illegalStatus(raw)
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
	if write && !c.WriteCSR(addr, newVal) {
		return c.illegalStatus(raw)
	}
	c.SetReg(in.Rd, old)
	c.PC += 4
	return stOK
}

func execHALT(c *CPU, in isa.Inst, raw uint32) int {
	if c.Priv != PrivS {
		return c.illegalStatus(raw)
	}
	c.PC += 4
	c.pendExit = c.exit(Exit{Reason: ExitHalt, Code: uint16(in.Imm)})
	return stExit
}
