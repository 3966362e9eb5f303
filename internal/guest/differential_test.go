package guest

import (
	"math/rand"
	"testing"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/vcpu"
)

// TestDifferentialExecutionAcrossModes is the transparency property at the
// heart of virtualization: for any workload, every virtualization mode must
// produce exactly the result the native machine produces — the modes may
// only differ in *time*. Randomized workload parameters, one seed, four
// machines.
func TestDifferentialExecutionAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type config struct {
		name string
		w    Workload
	}
	var configs []config
	for i := 0; i < 6; i++ {
		configs = append(configs,
			config{"compute", Compute(uint64(rng.Intn(400)+50), uint64(rng.Intn(40)))},
			config{"memtouch", MemTouch(uint64(rng.Intn(4)+1), uint64(rng.Intn(200)+16), uint64(rng.Intn(100)))},
			config{"syscall", Syscall(uint64(rng.Intn(100) + 10))},
			config{"csr", CSRLoop(uint64(rng.Intn(200) + 20))},
		)
	}
	for i, cfg := range configs {
		var ref uint64
		var refSet bool
		for _, mode := range allModes {
			vm := bootAndRun(t, mode, cfg.w)
			got := vm.Result(gabi.PResult0)
			if !refSet {
				ref = got
				refSet = true
				continue
			}
			if got != ref {
				t.Fatalf("config %d (%s): %v computed %d, native computed %d — virtualization is not transparent",
					i, cfg.name, mode, got, ref)
			}
		}
	}
}

// The engine-tier differential suite. The oracle interpreter
// (vcpu.EngineOracle) is the single operational semantics; every tier above
// it must be indistinguishable from it — cycles, instret, registers, CSRs,
// UART output, guest RAM and every simulated statistic (compareVMs with
// full set) — and may only change host time. Every differential test in
// this package indexes the same tier list, compares against the oracle
// with the same helper, and asserts that the tier's own layer actually ran
// (tierLive) so a proof can never pass vacuously. The mode × workload matrix
// is split across four tests that keep the names of the layers that first
// introduced them: ICache → cached, Superblock → blocks, ThreadedDispatch →
// chained, WriteMemo → traced.

// engineTiers is the tier index: every tier above the oracle.
var engineTiers = []vcpu.Engine{vcpu.EngineCached, vcpu.EngineBlocks, vcpu.EngineChained, vcpu.EngineTraced}

// withEngine is a config tweak selecting tier e.
func withEngine(e vcpu.Engine) func(*core.Config) {
	return func(c *core.Config) { c.Engine = e }
}

// tierLive reports whether vm, run at tier e, exercised the layer e adds:
// icache hits (cached), superblock dispatch — fewer icache lookups than
// retired instructions (blocks), chain hits (chained) or trace entries
// (traced).
func tierLive(vm *core.VM, e vcpu.Engine) bool {
	ic := vm.CPU.ICache
	if ic == nil {
		return false
	}
	switch e {
	case vcpu.EngineCached:
		return ic.Stats.Hits > 0
	case vcpu.EngineBlocks:
		return ic.Stats.Hits+ic.Stats.Misses+ic.Stats.Invalidations < vm.CPU.Instret
	case vcpu.EngineChained:
		return ic.Stats.ChainHits > 0
	default:
		return ic.Stats.TraceEntries > 0
	}
}

// checkOracle fails unless vm ran as the oracle: no icache attached, no
// write-memo activity and not one span-memo entry installed.
func checkOracle(t *testing.T, label string, vm *core.VM) {
	t.Helper()
	if vm.CPU.ICache != nil {
		t.Errorf("%s: oracle run has an icache attached", label)
	}
	if m := vm.Mem; m.WMemoHits != 0 || m.WMemoFills != 0 || !m.SpanMemoEmpty() {
		t.Errorf("%s: oracle run used a memo (wmemo hits=%d fills=%d, span memo empty=%v)",
			label, m.WMemoHits, m.WMemoFills, m.SpanMemoEmpty())
	}
}

// proveTiers boots one guest on the oracle and at every tier through boot,
// demands every tier byte-identical to the oracle, and reports which tiers
// showed their own layer live.
func proveTiers(t *testing.T, boot func(vcpu.Engine) *core.VM) (live map[vcpu.Engine]bool) {
	t.Helper()
	oracle := boot(vcpu.EngineOracle)
	checkOracle(t, "oracle", oracle)
	live = map[vcpu.Engine]bool{}
	for _, e := range engineTiers {
		vm := boot(e)
		compareVMs(t, e.String(), oracle, vm, true)
		live[e] = tierLive(vm, e)
	}
	return live
}

// namedWorkload is one row of the mode × workload matrix.
type namedWorkload struct {
	name string
	w    Workload
}

// tierWorkloads is the matrix's workload set.
func tierWorkloads() []namedWorkload {
	return []namedWorkload{
		{"compute-hot", Compute(300, 50)},  // the F3 privileged-density loop
		{"memtouch", MemTouch(4, 300, 40)}, // TLB pressure: fetch entries compete with data
		{"ptchurn", PTChurn(2, false)},     // SFENCE flushes + write-protect faults
		{"syscall", Syscall(60)},           // trap entry/SRET privilege flips mid-stream
		{"csr", CSRLoop(80)},               // CSR exits every few instructions
		{"idle", Idle(3, 50_000)},          // WFI, timer fast-forward, re-entry
	}
}

// proveTierMatrix runs every workload in every mode at tier e and on the
// oracle and demands byte-identical results; check, when set, adds
// per-run assertions on the tier's VM for the named workload. It returns how many subtests showed
// the tier's own layer live.
func proveTierMatrix(t *testing.T, e vcpu.Engine, workloads []namedWorkload, check func(t *testing.T, workload string, vm *core.VM)) (live int) {
	for _, mode := range allModes {
		for _, wl := range workloads {
			t.Run(mode.String()+"/"+wl.name, func(t *testing.T) {
				tier := bootAndRunCfgd(t, mode, wl.w, e)
				oracle := bootAndRunCfgd(t, mode, wl.w, vcpu.EngineOracle)
				compareVMs(t, e.String(), oracle, tier, true)
				checkOracle(t, "oracle", oracle)
				if check != nil {
					check(t, wl.name, tier)
				}
				if tierLive(tier, e) {
					live++
				}
			})
		}
	}
	return live
}

// TestDifferentialICacheInvisible proves the cached tier (decoded-
// instruction cache, threaded dispatch, load/store and span memos) against
// the oracle on the mode × workload matrix; every run must hit the cache.
func TestDifferentialICacheInvisible(t *testing.T) {
	if live := proveTierMatrix(t, vcpu.EngineCached, tierWorkloads(), nil); live != len(allModes)*len(tierWorkloads()) {
		t.Errorf("the decoded cache was live in %d of %d runs", live, len(allModes)*len(tierWorkloads()))
	}
}

// bootAndRunCfgd runs a workload to a clean halt at tier e.
func bootAndRunCfgd(t *testing.T, mode core.Mode, w Workload, e vcpu.Engine) *core.VM {
	t.Helper()
	vm := bootVMCfg(t, mode, w, withEngine(e))
	state := vm.RunToHalt(runBudget)
	if state != core.StateHalted {
		t.Fatalf("[%v %v] final state %v (err=%v, pc=%#x)", mode, e, state, vm.Err, vm.CPU.PC)
	}
	if vm.HaltCode != 0 {
		t.Fatalf("[%v %v] guest panicked: halt=%#x", mode, e, vm.HaltCode)
	}
	return vm
}

// TestDifferentialMemoryImage: after the same deterministic workload, the
// guest-visible heap contents must be identical across modes (shadow tables,
// nested walks and hypercall paging must never corrupt data).
func TestDifferentialMemoryImage(t *testing.T) {
	w := MemTouch(3, 64, 50)
	heap := func(vm *core.VM) []byte {
		base := vm.Result(0) // unused slot; compute heap from params instead
		_ = base
		hb, _ := vm.Mem.ReadUint(gabi.ParamBase+gabi.PHeapBase*8, 8)
		buf := make([]byte, 64*4096)
		for i := uint64(0); i < 64; i++ {
			vm.Mem.ReadRaw(hb+i, buf[i*4096:(i+1)*4096])
		}
		return buf
	}
	var ref []byte
	for _, mode := range allModes {
		vm := bootAndRun(t, mode, w)
		img := heap(vm)
		if ref == nil {
			ref = img
			continue
		}
		for i := range img {
			if img[i] != ref[i] {
				t.Fatalf("%v: heap byte %d differs (%d vs %d)", mode, i, img[i], ref[i])
			}
		}
	}
}
