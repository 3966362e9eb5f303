package guest

import (
	"fmt"
	"testing"

	"govisor/internal/core"
	"govisor/internal/sched"
	"govisor/internal/vcpu"
)

// TestDifferentialSuperblockInvisible proves the blocks tier against the
// oracle on the mode × workload matrix. Event boundaries (quantum expiry,
// STIMECMP latches, interrupt windows) must land on exactly the same
// instruction, which the idle/syscall/csr workloads exercise through timer
// wakeups and privilege flips; every run must dispatch superblocks.
func TestDifferentialSuperblockInvisible(t *testing.T) {
	if live := proveTierMatrix(t, vcpu.EngineBlocks, tierWorkloads(), nil); live != len(allModes)*len(tierWorkloads()) {
		t.Errorf("superblocks dispatched in %d of %d runs", live, len(allModes)*len(tierWorkloads()))
	}
}

// proveTierFleet extends a tier's proof to the parallel engine: a fleet
// built by build at tier e and run under RunParallel must be byte-identical
// to the oracle fleet run on one worker, at every worker count 1..4 — per-VM
// guest state and statistics, host clock and pool occupancy. Epoch-lease
// quantum slicing must land on the same instruction under every tier. At
// least one VM per worker count must show the tier's own layer live.
func proveTierFleet(t *testing.T, e vcpu.Engine, build func(tweak func(*core.Config)) *core.Host) {
	t.Helper()
	ref := build(withEngine(vcpu.EngineOracle))
	runFleetParallel(t, ref, 1)
	for i, vm := range ref.VMs {
		checkOracle(t, fmt.Sprintf("oracle vm=%d", i), vm)
	}

	for workers := 1; workers <= 4; workers++ {
		h := build(withEngine(e))
		runFleetParallel(t, h, workers)
		if h.Now != ref.Now {
			t.Errorf("%v w=%d: host clock %d != %d", e, workers, h.Now, ref.Now)
		}
		if h.Pool.InUse() != ref.Pool.InUse() {
			t.Errorf("%v w=%d: pool occupancy %d != %d", e, workers, h.Pool.InUse(), ref.Pool.InUse())
		}
		live := false
		for i := range h.VMs {
			compareVMs(t, fmt.Sprintf("%v w=%d vm=%s", e, workers, h.VMs[i].Name),
				ref.VMs[i], h.VMs[i], true)
			live = live || tierLive(h.VMs[i], e)
		}
		if !live {
			t.Errorf("%v w=%d: no VM exercised the tier's layer", e, workers)
		}
	}
}

// consolidationBuilder builds the mixed-mode consolidation fleet under the
// credit scheduler.
func consolidationBuilder(t *testing.T) func(tweak func(*core.Config)) *core.Host {
	return func(tweak func(*core.Config)) *core.Host {
		return buildFleetCfg(t, consolidationFleet(), func() core.Scheduler { return sched.NewCredit() }, tweak)
	}
}

// TestDifferentialSuperblockParallel proves the blocks tier under
// RunParallel on the mixed-mode consolidation fleet: blocks must fall back
// at exactly the epoch-lease deadlines the oracle observes.
func TestDifferentialSuperblockParallel(t *testing.T) {
	proveTierFleet(t, vcpu.EngineBlocks, consolidationBuilder(t))
}
