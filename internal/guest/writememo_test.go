package guest

import (
	"testing"

	"govisor/internal/core"
	"govisor/internal/vcpu"
)

// TestDifferentialWriteMemoInvisible proves the traced tier — the full
// stack — against the oracle on the mode × workload matrix plus a
// page-local store loop, the write memo's target shape. The write memo runs
// in every tier above the oracle, so besides byte-identical state
// (including COW and demand-fill accounting) every run must fill the memo,
// and the store loop must hit it. At least one run per mode must enter a
// trace.
func TestDifferentialWriteMemoInvisible(t *testing.T) {
	workloads := append(tierWorkloads(), namedWorkload{"store-hot", MemTouch(6, 4, 100)})
	live := proveTierMatrix(t, vcpu.EngineTraced, workloads, func(t *testing.T, workload string, vm *core.VM) {
		if vm.Mem.WMemoFills == 0 {
			t.Error("run never filled the write memo")
		}
		if workload == "store-hot" && vm.Mem.WMemoHits == 0 {
			t.Error("page-local store loop never hit the write memo")
		}
	})
	if live < len(allModes) {
		t.Errorf("traces were live in only %d runs", live)
	}
}

// TestDifferentialWriteMemoParallel proves the traced tier under
// RunParallel on the consolidation fleet, whose clone/dedup COW churn and
// demand fills run against warm write memos in every epoch.
func TestDifferentialWriteMemoParallel(t *testing.T) {
	proveTierFleet(t, vcpu.EngineTraced, consolidationBuilder(t))
}
