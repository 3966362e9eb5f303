package main

import (
	"fmt"
	"time"

	"govisor/internal/core"
	"govisor/internal/guest"
	"govisor/internal/sched"
	"govisor/internal/virtio"
	"govisor/internal/vnet"
)

// fleetIO runs one Host under the credit scheduler with RunParallel: virtio
// net sender/receiver pairs on one switch beside CPU-bound trap and para
// Compute VMs. It is the only workload where the lease/barrier engine,
// the scheduler, the switch, the virtio dataplane and the sharded pool do
// the work.
var fleetIO = &workload{
	name:     "fleet-io",
	op:       "RunParallel epoch",
	opMetric: "epoch_ms",
	tail:     0.90,
	plan: func(seed uint64) passFunc {
		rot := newRNG(seed, "frame-len").next() % uint64(len(frameLens))
		return func(tr *tracer) (*passResult, error) { return fleetPass(rot, tr) }
	},
	allPlans: func() []passFunc {
		var plans []passFunc
		for rot := range frameLens {
			rot := uint64(rot)
			plans = append(plans, func(tr *tracer) (*passResult, error) { return fleetPass(rot, tr) })
		}
		return plans
	},
}

const (
	fleetPairs    = 6
	fleetFrames   = 1024 // frames each sender sends; its receiver posts as many buffers
	fleetBatch    = 16   // frames per TX kick
	fleetWorkers  = 2    // RunParallel workers: the host's 2 CPUs
	fleetPCPUs    = 4    // simulated cores: fixed, so the schedule is the same at any worker count
	fleetCompute  = 4    // CPU-bound VMs, alternating trap and para
	fleetIters    = 12_000
	fleetPeriod   = 50
	fleetMaxClock = 1 << 40 // RunParallel host-clock limit; a runaway guard only
)

// frameLens is the frame length menu (bytes). Pair p sends frames of
// frameLens[(rot+p) mod 4], where the seed picks rot: every seed gives each
// pair another length, while the fleet's total bytes stay nearly level.
var frameLens = []uint64{1024, 1152, 1280, 1408}

func fleetPass(rot uint64, tr *tracer) (*passResult, error) {
	res := &passResult{}
	var lens [fleetPairs]uint64
	for p := range lens {
		lens[p] = frameLens[(rot+uint64(p))%uint64(len(frameLens))]
	}
	res.startSetup()
	t0 := time.Now()
	setupSpan := tr.begin("setup", -1, -1)
	build := func(unit int, f func() ([]byte, error)) ([]byte, error) {
		sp := tr.begin("guest.build", setupSpan, unit)
		defer tr.end(sp)
		tb := time.Now()
		defer func() { res.addHost("guest.build", time.Since(tb)) }()
		return f()
	}
	kernel, err := build(-1, guest.BuildKernel)
	if err != nil {
		return nil, err
	}
	vms := 2*fleetPairs + fleetCompute
	credit := sched.NewCredit()
	h := core.NewHost(uint64(vms+2)*(vmRAM/4096), fleetPCPUs, credit)
	sw := vnet.NewSwitch()
	type nic struct {
		net *virtio.Net
		dev *virtio.MMIODev
	}
	nics := make([]nic, vms)
	keys := make([]string, vms)
	fleetKey := fmt.Sprintf("lens=%v", lens)
	create := func(i int, name string, mode core.Mode, img []byte, attach func(vm *core.VM) error) error {
		sp := tr.begin("core.CreateVM", setupSpan, i)
		vm, err := h.CreateVM(core.Config{Name: name, Mode: mode, MemBytes: vmRAM})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if attach != nil {
			sp := tr.begin("vm.AttachVirtioNet", setupSpan, i)
			err := attach(vm)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp = tr.begin("vm.Boot", setupSpan, i)
		tb := time.Now()
		err = vm.Boot(img)
		res.addHost("core.boot", time.Since(tb))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: boot: %w", name, err)
		}
		h.AddToScheduler(i, 256, 0)
		keys[i] = name + "/" + fleetKey
		return nil
	}
	for p := 0; p < fleetPairs; p++ {
		tx, rx := 2*p, 2*p+1
		src, dst := vnet.MACForVM(uint32(tx)), vnet.MACForVM(uint32(rx))
		txImg, err := build(tx, func() ([]byte, error) {
			return guest.BuildVirtioNetUnicastProgram(fleetFrames, fleetBatch, lens[p], 0, src, dst)
		})
		if err != nil {
			return nil, err
		}
		if err := create(tx, fmt.Sprintf("tx%d", p), core.ModeHW, txImg, func(vm *core.VM) error {
			n, d, err := vm.AttachVirtioNet(sw.NewPort())
			nics[tx] = nic{n, d}
			return err
		}); err != nil {
			return nil, err
		}
		rxImg, err := build(rx, func() ([]byte, error) {
			return guest.BuildVirtioNetRXProgram(fleetFrames, virtio.NetHeaderSize+lens[p], 0)
		})
		if err != nil {
			return nil, err
		}
		if err := create(rx, fmt.Sprintf("rx%d", p), core.ModeHW, rxImg, func(vm *core.VM) error {
			// Receivers never transmit, so the switch cannot learn them.
			port := sw.NewPort()
			sw.Learn(dst, port)
			n, d, err := vm.AttachVirtioNet(port)
			nics[rx] = nic{n, d}
			return err
		}); err != nil {
			return nil, err
		}
	}
	for c := 0; c < fleetCompute; c++ {
		i := 2*fleetPairs + c
		mode := core.ModeTrap
		if c%2 == 1 {
			mode = core.ModePara
		}
		w := guest.Compute(fleetIters, fleetPeriod)
		if err := create(i, fmt.Sprintf("compute%d/%v", c, mode), mode, kernel, func(vm *core.VM) error {
			w.Apply(vm)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	tr.end(setupSpan)
	res.setup = time.Since(t0)

	before := res.startTimed()
	root := tr.begin("core.RunParallel", -1, -1)
	clock := &epochClock{res: res, tr: tr, root: root}
	if tr != nil {
		h.Sched = timedSched{credit, clock}
	}
	h.EpochFunc = clock.epoch
	t1 := time.Now()
	clock.last = t1
	h.RunParallel(fleetWorkers, fleetMaxClock)
	res.run = time.Since(t1)
	tr.end(root)
	res.finishTimed(before)
	if tr != nil {
		epochs := float64(len(res.ops))
		res.addSample("sched.calls_per_epoch", ratio(float64(clock.calls), epochs))
		res.addSample("sched.ns_per_call", ratio(float64(clock.callNs), float64(clock.calls)))
	}

	var sent uint64
	for i, vm := range h.VMs {
		u := unitResult{name: vm.Name, key: keys[i], counts: vmCounts(vm)}
		u.counts["mem.pool_allocs"] = 0 // the pool is shared: counted once, on the fleet unit
		if n := nics[i]; n.net != nil {
			u.counts["virtio.tx_frames"] = n.net.TxFrames
			u.counts["virtio.rx_frames"] = n.net.RxFrames
			u.counts["virtio.rx_dropped"] = n.net.RxDropped
			u.counts["virtio.notifies"] = n.dev.Notifies
			u.counts["virtio.irqs"] = n.dev.IRQs
			sent += n.net.TxFrames
		}
		res.instret += vm.CPU.Instret
		switch {
		case vm.State != core.StateHalted:
			u.fail = fmt.Sprintf("did not halt: state %v, err %v", vm.State, vm.Err)
		case vm.HaltCode != 0:
			u.fail = fmt.Sprintf("halted with code %#x", vm.HaltCode)
		}
		d := newDigester()
		d.vm(vm)
		u.digest = d.sum()
		res.units = append(res.units, u)
	}

	// The fleet unit: host clock, switch counters and the delivery check.
	fwd, flooded, dropped := sw.Stats()
	f := unitResult{name: "fleet", key: "fleet/" + fleetKey, counts: counters{
		"vnet.forwarded": fwd, "vnet.flooded": flooded, "vnet.dropped": dropped,
		"core.epochs":     uint64(len(res.ops)),
		"mem.pool_allocs": h.Pool.InUse(),
	}}
	if want := uint64(fleetPairs * fleetFrames); sent != want || fwd != want || flooded != 0 || dropped != 0 {
		f.fail = fmt.Sprintf("switch forwarded %d (flooded %d, dropped %d) of %d frames sent, want %d",
			fwd, flooded, dropped, sent, want)
	}
	d := newDigester()
	d.u(h.Now, fwd, flooded, dropped)
	f.digest = d.sum()
	res.units = append(res.units, f)
	for _, vm := range h.VMs {
		vm.Release()
	}
	return res, nil
}
