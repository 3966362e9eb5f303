package bench

import (
	"fmt"
	"time"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/guest"
	"govisor/internal/isa"
	"govisor/internal/metrics"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
	"govisor/internal/vnet"
)

// m9Pairs is the M9 fleet size: 8 unicast flows = 16 VMs on one shared
// switch, every sender kicking batched virtio-net TX chains at a passive
// receiver that posted its whole RX ring up front.
const m9Pairs = 8

// m9Fleet builds the dataplane storm: 2×m9Pairs VMs around one switch.
// PCPUs is fixed at the fleet size so the epoch schedule — and therefore
// every simulated number — is identical at every worker count (the M2
// pattern). Receiver MACs are statically installed in the FDB; passive
// receivers never transmit, so the switch cannot learn them.
func m9Fleet(frames, batch, frameLen uint64, engine vcpu.Engine) (*core.Host, *vnet.Switch, error) {
	const vms = 2 * m9Pairs
	sw := vnet.NewSwitch()
	h := core.NewHost(uint64(vms+2)*(benchRAM>>isa.PageShift), vms, sched.NewCredit())
	for i := 0; i < m9Pairs; i++ {
		srcMAC := vnet.MACForVM(uint32(2 * i))
		dstMAC := vnet.MACForVM(uint32(2*i + 1))

		send, err := h.CreateVM(core.Config{
			Name: fmt.Sprintf("m9-tx%d", i), Mode: core.ModeHW, MemBytes: benchRAM,
			Engine: engine,
		})
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := send.AttachVirtioNet(sw.NewPort()); err != nil {
			return nil, nil, err
		}
		prog, err := guest.BuildVirtioNetUnicastProgram(frames, batch, frameLen, 0, srcMAC, dstMAC)
		if err != nil {
			return nil, nil, err
		}
		if err := send.Boot(prog); err != nil {
			return nil, nil, err
		}
		h.AddToScheduler(2*i, 256, 0)

		recv, err := h.CreateVM(core.Config{
			Name: fmt.Sprintf("m9-rx%d", i), Mode: core.ModeHW, MemBytes: benchRAM,
			Engine: engine,
		})
		if err != nil {
			return nil, nil, err
		}
		rxPort := sw.NewPort()
		if _, _, err := recv.AttachVirtioNet(rxPort); err != nil {
			return nil, nil, err
		}
		sw.Learn(dstMAC, rxPort)
		rprog, err := guest.BuildVirtioNetRXProgram(frames, 12+frameLen, 0)
		if err != nil {
			return nil, nil, err
		}
		if err := recv.Boot(rprog); err != nil {
			return nil, nil, err
		}
		h.AddToScheduler(2*i+1, 256, 0)
	}
	return h, sw, nil
}

// M9Dataplane: host-side throughput of the virtio-net dataplane storm —
// 8 unicast sender→receiver flows over one shared switch under RunParallel —
// on the full stack (EngineTraced, span-DMA memo included) at 1 and 4
// workers against the oracle tier (no icache, page-by-page DMA) at 1
// worker. Timestamp-ordered epoch-barrier delivery and every engine layer
// must be architecturally invisible: guest cycles, retired instructions, the
// host clock and every switch counter are byte-identical across all arms
// and worker counts — enforced here at bench time, and proven in full
// (registers, CSRs, RAM hashes, VMM/MMU/TLB stats, serial engine included)
// by TestDifferentialDataplaneInvisible. The gated measurement is host ns
// per guest instruction; frames forwarded is pure simulated output.
func M9Dataplane() (*metrics.Table, error) {
	t := &metrics.Table{Header: []string{
		"config", "workers", "guest instrs", "guest cycles (vm0)", "forwarded", "host ns/instr", "speedup",
	}}

	batch := uint64(16)
	frames := scaled(512)
	frames = (frames + batch - 1) / batch * batch // kick batches must divide
	const frameLen = 256

	type result struct {
		instret uint64
		cycles  uint64
		now     uint64
		fwd     uint64
		hostNs  float64
	}
	run := func(workers int, engine vcpu.Engine) (result, error) {
		h, sw, err := m9Fleet(frames, batch, frameLen, engine)
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		h.RunParallel(workers, benchBudget)
		elapsed := float64(time.Since(start).Nanoseconds())
		if !h.AllHalted() {
			return result{}, fmt.Errorf("bench: M9 fleet did not halt (workers=%d engine=%v)", workers, engine)
		}
		var instret uint64
		for _, vm := range h.VMs {
			if vm.HaltCode != 0 {
				return result{}, fmt.Errorf("bench: M9 guest %s halt %#x cause %d",
					vm.Name, vm.HaltCode, vm.Result(gabi.PResult3))
			}
			instret += vm.CPU.Instret
		}
		fwd, flooded, dropped := sw.Stats()
		if want := uint64(m9Pairs) * frames; fwd != want || flooded != 0 || dropped != 0 {
			return result{}, fmt.Errorf("bench: M9 switch fwd=%d flood=%d drop=%d, want %d unicast forwards",
				fwd, flooded, dropped, want)
		}
		return result{instret, h.VMs[0].CPU.Cycles, h.Now, fwd, elapsed}, nil
	}

	arms := []struct {
		config  string
		workers int
		engine  vcpu.Engine
	}{
		{"oracle", 1, vcpu.EngineOracle},
		{"dataplane", 1, vcpu.EngineTraced},
		{"dataplane", 4, vcpu.EngineTraced},
	}
	// Warm allocator and host caches with one throwaway run per arm.
	for _, a := range arms {
		if _, err := run(a.workers, a.engine); err != nil {
			return nil, err
		}
	}
	var base result
	for i, a := range arms {
		r, err := run(a.workers, a.engine)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = r
		}
		// The transparency property, enforced at benchmark time: neither the
		// engine tier nor the worker count may leak into anything the
		// simulation can observe.
		if r.cycles != base.cycles || r.instret != base.instret || r.now != base.now || r.fwd != base.fwd {
			return nil, fmt.Errorf("bench: M9 dataplane not invisible (%s w=%d): "+
				"(cyc=%d ret=%d now=%d fwd=%d) vs (cyc=%d ret=%d now=%d fwd=%d)",
				a.config, a.workers, r.cycles, r.instret, r.now, r.fwd,
				base.cycles, base.instret, base.now, base.fwd)
		}
		nsBase := base.hostNs / float64(base.instret)
		ns := r.hostNs / float64(r.instret)
		t.AddRow(a.config, fmt.Sprint(a.workers), fmt.Sprint(r.instret),
			fmt.Sprint(r.cycles), fmt.Sprint(r.fwd),
			fmt.Sprintf("%.1f", ns), fmt.Sprintf("%.2fx", nsBase/ns))
	}
	return t, nil
}
