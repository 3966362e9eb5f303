// Package core implements the govisor virtual machine monitor: VM lifecycle,
// the VM-exit dispatch loop, privileged-instruction emulation, the hypercall
// interface, virtual interrupt injection, and the wiring between vCPUs,
// guest memory, the MMU engines and the device models.
//
// One VMM supports four execution modes over the same guest binary:
//
//	ModeNative — the baseline: the "hardware" runs the guest fully
//	             privileged with direct 1-D paging. No VMM exits except
//	             firmware calls (the hypercall ABI doubles as SBI).
//	ModeTrap   — classic trap-and-emulate with shadow paging: the guest is
//	             deprivileged, every privileged op exits and is emulated,
//	             translations come from VMM-maintained shadow tables kept
//	             coherent by write-protecting guest page-table pages.
//	ModePara   — paravirtual: the guest is deprivileged but cooperates,
//	             replacing page-table writes with (batchable) hypercalls
//	             against VMM-validated direct-mapped tables.
//	ModeHW     — simulated hardware assist: the guest runs privileged
//	             against its own CSR file; translation pays the
//	             two-dimensional nested-walk cost; exits happen only for
//	             hypercalls, MMIO, and host-level page faults.
package core

import (
	"fmt"

	"govisor/internal/dev"
	"govisor/internal/gabi"
	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/mmu"
	"govisor/internal/storage"
	"govisor/internal/vcpu"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// Mode selects the virtualization style of a VM.
type Mode uint8

// Virtualization modes.
const (
	ModeNative Mode = iota
	ModeTrap
	ModePara
	ModeHW
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeTrap:
		return "trap"
	case ModePara:
		return "para"
	case ModeHW:
		return "hw"
	}
	return "mode?"
}

// Venv returns the CSRVenv discovery value for the mode.
func (m Mode) Venv() uint64 {
	switch m {
	case ModeTrap:
		return isa.VEnvTrap
	case ModePara:
		return isa.VEnvPara
	case ModeHW:
		return isa.VEnvHW
	default:
		return isa.VEnvNative
	}
}

// State is the lifecycle state of a VM.
type State uint8

// VM states.
const (
	StateCreated State = iota
	StateRunning
	StateIdle   // WFI with no pending interrupt; wakes on IRQ or timer
	StatePaused // explicitly paused (migration brown-out)
	StateHalted
	StateError
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateIdle:
		return "idle"
	case StatePaused:
		return "paused"
	case StateHalted:
		return "halted"
	case StateError:
		return "error"
	}
	return "state?"
}

// Config describes a VM to create.
type Config struct {
	Name     string
	Mode     Mode
	MemBytes uint64
	// EagerMem pre-populates all of guest RAM at boot; otherwise pages are
	// demand-allocated on first touch.
	EagerMem bool
	// Costs overrides the cycle cost model (zero value ⇒ defaults).
	Costs *vcpu.Costs
	// UseASID controls TLB tagging (ablation A2). Default true.
	NoASID bool
	// NestedLevels overrides the nested walk depth in ModeHW (default 3).
	NestedLevels int
	// Engine is the vCPU's execution tier (see vcpu.Engine): the oracle
	// interpreter or the fast-path stack up to a given layer. Every tier is
	// architecturally invisible; the zero value is the full stack, and lower
	// tiers exist for the differential suites and the M-series benchmarks.
	Engine vcpu.Engine
}

// Marker is a benchmark region marker recorded by the HCMarker hypercall.
type Marker struct {
	ID     uint64
	Cycles uint64
}

// VMStats aggregates VMM-side counters for one VM.
type VMStats struct {
	Hypercalls   uint64
	ParaMaps     uint64 // MMU map/unmap operations validated
	ParaBatches  uint64
	Injections   uint64 // virtual traps/interrupts injected
	PTWriteEmuls uint64 // trapped guest page-table writes emulated
	ShadowFills  uint64
	DemandFills  uint64
	RemoteFills  uint64 // post-copy pages pulled from a migration source
	MMIOExits    uint64
}

// VM is one guest virtual machine.
type VM struct {
	Name string
	Mode Mode

	Mem    *mem.GuestPhys
	CPU    *vcpu.CPU
	MMUCtx *mmu.Context
	Bus    *dev.Bus
	IntCtl *dev.IntController
	UART   *dev.UART

	State    State
	HaltCode uint16
	Err      error

	Params  [gabi.ParamSlots]uint64
	Markers []Marker

	// PageSource, when set, resolves not-present pages from a remote host
	// (post-copy live migration). It returns the page content and true, or
	// false to fall back to demand-zero allocation.
	PageSource func(gfn uint64) ([]byte, bool)

	// ReclaimHook, when set, is invoked when the host pool is exhausted;
	// returning true means "retry the allocation" (the overcommit policy
	// freed something). Used by the ballooning experiments. Under
	// Host.RunParallel the hook runs on this VM's worker mid-epoch, so it
	// must not touch other VMs' state — drive cross-VM reclaim from
	// Host.EpochFunc instead (see the RunParallel contract).
	ReclaimHook func() bool

	Stats VMStats

	// Paravirtual / prebuilt paging state.
	tb          *mmu.TableBuilder
	ptPages     map[uint64]bool // pinned table pages (para)
	churnVA     uint64
	virtioSlot  int
	virtioByIRQ map[uint]*virtio.MMIODev
	costs       vcpu.Costs

	// netPorts are the virtual-switch attachments of this VM's NICs; the
	// parallel engine defers their switches at run start so inter-VM frames
	// deliver at epoch barriers instead of racing across workers.
	netPorts []*vnet.Port
}

// ChurnWindowVA is the virtual base of the PT-churn window handed to guest
// kernels (well above RAM, below the MMIO window).
const ChurnWindowVA = 0x2000_0000

// ChurnWindowPages is how many leaf PTEs the churn window spans.
const ChurnWindowPages = 256

// ptRegionPages is the number of top-of-RAM pages reserved for the
// VMM-built boot page tables.
const ptRegionPages = 64

// NewVM creates a VM over the host pool.
func NewVM(pool *mem.Pool, cfg Config) (*VM, error) {
	if cfg.MemBytes < 32*isa.PageSize {
		return nil, fmt.Errorf("core: %s: at least 32 pages of RAM required", cfg.Name)
	}
	if cfg.Engine > vcpu.EngineOracle {
		return nil, fmt.Errorf("core: %s: unknown engine tier %d", cfg.Name, cfg.Engine)
	}
	g := mem.NewGuestPhys(pool, cfg.MemBytes)
	// The oracle resolves guest DMA page by page, without the span memo.
	g.SetNoSpanDMA(cfg.Engine == vcpu.EngineOracle)

	var style mmu.Style
	depriv := false
	switch cfg.Mode {
	case ModeNative:
		style = mmu.StyleDirect
	case ModeTrap:
		style = mmu.StyleShadow
		depriv = true
	case ModePara:
		style = mmu.StyleDirect
		depriv = true
	case ModeHW:
		style = mmu.StyleNested
	default:
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	ctx := mmu.NewContext(g, style)
	ctx.UseASID = !cfg.NoASID
	if cfg.NestedLevels > 0 {
		ctx.NestedLevels = cfg.NestedLevels
	}

	cpu := vcpu.New(g, ctx, cfg.Engine)
	cpu.Deprivileged = depriv
	cpu.Venv = cfg.Mode.Venv()
	if cfg.Costs != nil {
		cpu.Costs = *cfg.Costs
	}

	vm := &VM{
		Name:        cfg.Name,
		Mode:        cfg.Mode,
		Mem:         g,
		CPU:         cpu,
		MMUCtx:      ctx,
		Bus:         dev.NewBus(),
		IntCtl:      dev.NewIntController(),
		State:       StateCreated,
		ptPages:     make(map[uint64]bool),
		churnVA:     ChurnWindowVA,
		virtioByIRQ: make(map[uint]*virtio.MMIODev),
		costs:       cpu.Costs,
	}
	cpu.IsMMIO = vm.Bus.IsMMIO
	vm.IntCtl.SetPin = func(asserted bool) {
		if asserted {
			cpu.RaiseIRQ(isa.IntExt)
			if vm.State == StateIdle {
				vm.State = StateRunning
			}
		} else {
			cpu.ClearIRQ(isa.IntExt)
		}
	}
	if err := vm.Bus.Attach(dev.IntCtlBase, dev.IntCtlSize, vm.IntCtl); err != nil {
		return nil, err
	}
	vm.UART = dev.NewUART(vm.IntCtl)
	if err := vm.Bus.Attach(dev.UARTBase, dev.UARTSize, vm.UART); err != nil {
		return nil, err
	}
	if cfg.EagerMem {
		if err := g.PopulateAll(); err != nil {
			return nil, fmt.Errorf("core: %s: populating %d bytes: %w", cfg.Name, cfg.MemBytes, err)
		}
	}
	return vm, nil
}

// AttachPIODisk wires the programmed-I/O baseline disk.
func (vm *VM) AttachPIODisk(img storage.Image) (*dev.PIODisk, error) {
	d := dev.NewPIODisk(img, vm.IntCtl)
	if err := vm.Bus.Attach(dev.PIODiskBase, dev.PIODiskSize, d); err != nil {
		return nil, err
	}
	return d, nil
}

// AttachRegNIC wires the register-banged baseline NIC to a switch port.
func (vm *VM) AttachRegNIC(port *vnet.Port) (*dev.RegNIC, error) {
	n := dev.NewRegNIC(port, vm.IntCtl)
	if err := vm.Bus.Attach(dev.RegNICBase, dev.RegNICSize, n); err != nil {
		return nil, err
	}
	port.SetClock(func() uint64 { return vm.CPU.Cycles })
	vm.netPorts = append(vm.netPorts, port)
	return n, nil
}

// attachVirtio places a virtio backend in the next free slot.
func (vm *VM) attachVirtio(name string, backend virtio.Backend) (*virtio.MMIODev, error) {
	if vm.virtioSlot >= dev.VirtioSlots {
		return nil, fmt.Errorf("core: %s: out of virtio slots", vm.Name)
	}
	slot := vm.virtioSlot
	vm.virtioSlot++
	irq := uint(dev.IRQVirtio0 + slot)
	d := virtio.NewMMIODev(name, backend, vm.Mem, func() { vm.IntCtl.Raise(irq) })
	base := uint64(dev.VirtioBase + slot*dev.VirtioStride)
	if err := vm.Bus.Attach(base, dev.VirtioStride, d); err != nil {
		return nil, err
	}
	vm.virtioByIRQ[irq] = d
	return d, nil
}

// AttachVirtioBlk wires a virtio-blk device over img.
func (vm *VM) AttachVirtioBlk(img storage.Image) (*virtio.Blk, *virtio.MMIODev, error) {
	blk := virtio.NewBlk(img)
	d, err := vm.attachVirtio("virtio-blk", blk)
	if err != nil {
		return nil, nil, err
	}
	blk.Bind(d)
	return blk, d, nil
}

// AttachVirtioNet wires a virtio-net device to a switch port.
func (vm *VM) AttachVirtioNet(port *vnet.Port) (*virtio.Net, *virtio.MMIODev, error) {
	n := virtio.NewNet(port)
	d, err := vm.attachVirtio("virtio-net", n)
	if err != nil {
		return nil, nil, err
	}
	n.Bind(d)
	// Frames this VM defers at a switch carry its simulated send time, so
	// epoch-barrier flushes deliver in guest-time order regardless of which
	// worker ran which VM (see vnet.Switch.Flush).
	port.SetClock(func() uint64 { return vm.CPU.Cycles })
	vm.netPorts = append(vm.netPorts, port)
	return n, d, nil
}

// AttachVirtioConsole wires a virtio console.
func (vm *VM) AttachVirtioConsole() (*virtio.Console, *virtio.MMIODev, error) {
	c := virtio.NewConsole()
	d, err := vm.attachVirtio("virtio-console", c)
	if err != nil {
		return nil, nil, err
	}
	c.Bind(d)
	return c, d, nil
}

// balloonOps adapts the VM's memory to the virtio-balloon device.
type balloonOps struct{ vm *VM }

func (b balloonOps) ReclaimPage(gfn uint64) { b.vm.Mem.Unmap(gfn) }
func (b balloonOps) ReturnPage(gfn uint64)  { _ = b.vm.Mem.Populate(gfn) }

// AttachVirtioBalloon wires a balloon device driving this VM's memory.
func (vm *VM) AttachVirtioBalloon() (*virtio.Balloon, *virtio.MMIODev, error) {
	bal := virtio.NewBalloon(balloonOps{vm})
	d, err := vm.attachVirtio("virtio-balloon", bal)
	if err != nil {
		return nil, nil, err
	}
	bal.Bind(d)
	return bal, d, nil
}

// Boot loads the kernel image, builds the boot page tables, writes the
// parameter block, and arms the vCPU at the kernel entry point.
//
// The VMM plays bootloader: identity page tables covering guest RAM (2 MiB
// superpages where possible), the MMIO window, and the PT-churn window are
// built in a reserved region at the top of RAM; their SATP value is passed
// to the kernel through the parameter block. Under ModePara the table pages
// are pinned (write-protected) and may only change via MMU hypercalls.
func (vm *VM) Boot(kernel []byte) error {
	if vm.State != StateCreated {
		return fmt.Errorf("core: %s: boot in state %v", vm.Name, vm.State)
	}
	np := vm.Mem.Pages()
	if uint64(len(kernel)) > (np-ptRegionPages)<<isa.PageShift-gabi.KernelBase {
		return fmt.Errorf("core: %s: kernel of %d bytes does not fit", vm.Name, len(kernel))
	}
	// Ensure the pages backing kernel, params and stack exist.
	for gfn := uint64(0); gfn <= (gabi.KernelBase+uint64(len(kernel)))>>isa.PageShift; gfn++ {
		if err := vm.Mem.Populate(gfn); err != nil {
			return err
		}
	}
	if f := vm.Mem.Write(gabi.KernelBase, kernel); f != nil {
		return fmt.Errorf("core: %s: loading kernel: %w", vm.Name, f)
	}

	// Boot page tables at the top of RAM.
	tableStart := np - ptRegionPages
	tb, err := mmu.NewTableBuilder(vm.Mem, tableStart, ptRegionPages)
	if err != nil {
		return err
	}
	ramFlags := isa.PTERead | isa.PTEWrite | isa.PTEExec | isa.PTEGlobal
	if err := tb.IdentityMap(np<<isa.PageShift, ramFlags); err != nil {
		return err
	}
	// MMIO window: 2 MiB superpages covering all device slots.
	mmioFlags := isa.PTERead | isa.PTEWrite | isa.PTEGlobal
	for off := uint64(0); off < 16*isa.MegaPageSize; off += isa.MegaPageSize {
		if err := tb.MapSuper(dev.MMIOBase+off, dev.MMIOBase+off, mmioFlags); err != nil {
			return err
		}
	}
	// Churn window: allocate the L0 table and expose the PTE slots.
	l0, err := tb.EnsureL0(vm.churnVA)
	if err != nil {
		return err
	}
	vm.tb = tb
	// Pin what must never be reclaimed: the page-table region (the walker
	// faults recursively if it vanishes), the kernel image, and the
	// parameter/stack pages.
	for gfn := tableStart; gfn < np; gfn++ {
		vm.Mem.Pin(gfn)
	}
	for gfn := uint64(0); gfn <= (gabi.KernelBase+uint64(len(kernel)))>>isa.PageShift; gfn++ {
		vm.Mem.Pin(gfn)
	}
	vm.Mem.Pin((gabi.StackTop - 1) >> isa.PageShift)
	if vm.Mode == ModePara {
		for _, ppn := range tb.TablePPNs() {
			vm.Mem.WriteProtect(ppn, true)
			vm.ptPages[ppn] = true
		}
	}

	satp := isa.MakeSatp(isa.SatpModePaged, 1, tb.RootPPN)
	heapBase := (gabi.KernelBase + isa.PageRoundUp(uint64(len(kernel))) + 16*isa.PageSize) >> isa.PageShift
	vm.Params[gabi.PHeapBase] = heapBase
	vm.Params[gabi.PHeapPages] = tableStart - heapBase
	vm.Params[gabi.PSatp] = satp
	vm.Params[gabi.PChurnVA] = vm.churnVA
	vm.Params[gabi.PChurnPTE] = l0<<isa.PageShift + isa.VPN(vm.churnVA, 0)*8
	vm.Params[gabi.PChurnPages] = ChurnWindowPages
	for i, v := range vm.Params {
		if f := vm.Mem.WriteUintPriv(gabi.ParamBase+uint64(i)*8, 8, v); f != nil {
			return fmt.Errorf("core: %s: writing params: %w", vm.Name, f)
		}
	}

	cpu := vm.CPU
	cpu.PC = gabi.KernelBase
	cpu.Priv = vcpu.PrivS
	cpu.SetReg(isa.RegA0, gabi.ParamBase)
	cpu.SetReg(isa.RegSP, gabi.StackTop)
	vm.State = StateRunning
	// Boot-time dirtying is not workload dirtying.
	vm.Mem.CollectDirty(nil)
	return nil
}

// SetParam stores a boot parameter; must be called before Boot.
func (vm *VM) SetParam(slot int, v uint64) { vm.Params[slot] = v }

// Result reads a result slot from the parameter block after the guest halts.
func (vm *VM) Result(slot int) uint64 {
	v, _ := vm.Mem.ReadUint(gabi.ParamBase+uint64(slot)*8, 8)
	return v
}

// Output returns the UART console output.
func (vm *VM) Output() string { return vm.UART.Output() }

// Pause stops the VM at the next exit boundary (migration brown-out).
func (vm *VM) Pause() {
	if vm.State == StateRunning || vm.State == StateIdle {
		vm.State = StatePaused
	}
}

// Resume restarts a paused VM.
func (vm *VM) Resume() {
	if vm.State == StatePaused {
		vm.State = StateRunning
	}
}

// AdoptState copies the architectural vCPU state from src into this VM —
// the migration switchover. Memory content is transferred separately by the
// migration engine; device models are expected to be attached identically
// on both sides. Installing SATP through WriteCSR re-arms the destination's
// own MMU (shadow spaces rebuild on demand).
func (vm *VM) AdoptState(src *VM) {
	dst := vm.CPU
	s := src.CPU
	dst.X = s.X
	dst.PC = s.PC
	dst.Priv = s.Priv
	dst.Cycles = s.Cycles
	dst.Instret = s.Instret
	dst.CSR = s.CSR
	dst.WriteCSR(isa.CSRSatp, s.CSR.Satp)
	vm.Params = src.Params
	vm.HaltCode = src.HaltCode
	vm.State = StateRunning
}

// ArchState is the portable architectural snapshot of a vCPU — exactly the
// fields AdoptState transfers at migration switchover. The streamed
// migration engine serializes it over the wire and also checkpoints it at
// Pause so an aborted migration can roll the source back bit-for-bit.
type ArchState struct {
	X        [32]uint64
	PC       uint64
	Priv     uint8
	Cycles   uint64
	Instret  uint64
	CSR      vcpu.CSRFile
	Params   [gabi.ParamSlots]uint64
	HaltCode uint16
}

// CaptureArch snapshots the VM's architectural state.
func (vm *VM) CaptureArch() ArchState {
	c := vm.CPU
	return ArchState{
		X:        c.X,
		PC:       c.PC,
		Priv:     c.Priv,
		Cycles:   c.Cycles,
		Instret:  c.Instret,
		CSR:      c.CSR,
		Params:   vm.Params,
		HaltCode: vm.HaltCode,
	}
}

// AdoptArch installs a captured architectural state into this VM — the
// remote half of AdoptState. Installing SATP through WriteCSR re-arms the
// destination's own MMU, and the VM comes up running, exactly as a local
// AdoptState would leave it.
func (vm *VM) AdoptArch(a ArchState) {
	c := vm.CPU
	c.X = a.X
	c.PC = a.PC
	c.Priv = a.Priv
	c.Cycles = a.Cycles
	c.Instret = a.Instret
	c.CSR = a.CSR
	c.WriteCSR(isa.CSRSatp, a.CSR.Satp)
	vm.Params = a.Params
	vm.HaltCode = a.HaltCode
	vm.State = StateRunning
}

// RestoreArch rolls the VM back to a checkpoint taken on this same VM
// while it was paused — the migration-abort path. Unlike AdoptArch it is a
// raw field restore with no MMU re-arm: nothing has executed since the
// checkpoint (the brown-out only read memory and advanced the clock), so
// the MMU state on record is still valid and must not be perturbed. The VM
// stays in its current (paused) state; the caller Resumes it.
func (vm *VM) RestoreArch(a ArchState) {
	c := vm.CPU
	c.X = a.X
	c.PC = a.PC
	c.Priv = a.Priv
	c.Cycles = a.Cycles
	c.Instret = a.Instret
	c.CSR = a.CSR
	vm.Params = a.Params
	vm.HaltCode = a.HaltCode
}

// FailRemote transitions the VM to StateError with err — used by
// post-copy PageSource hooks when a remote pull fails unrecoverably, so
// the guest halts with a visible error instead of silently executing
// demand-zero garbage.
func (vm *VM) FailRemote(err error) { vm.fail(err) }

// Release returns all resources to the host pool (teardown).
func (vm *VM) Release() {
	if vm.MMUCtx.Shadow != nil {
		vm.MMUCtx.Shadow.DropAll()
	}
	vm.Mem.Release()
	vm.State = StateHalted
}
