package guest

import (
	"testing"

	"govisor/internal/vcpu"
)

// TestDifferentialThreadedDispatchInvisible proves the chained tier against
// the oracle on the mode × workload matrix: block entries through recorded
// chain links and cross-page continuation, on top of the threaded executors
// whose results the oracle's dispatch switch must reproduce. At least one
// run per mode must chain.
func TestDifferentialThreadedDispatchInvisible(t *testing.T) {
	if live := proveTierMatrix(t, vcpu.EngineChained, tierWorkloads(), nil); live < len(allModes) {
		t.Errorf("block chaining was live in only %d runs", live)
	}
}

// TestDifferentialThreadedDispatchParallel proves the cached tier — the
// tier that introduces threaded dispatch — under RunParallel on the
// consolidation fleet.
func TestDifferentialThreadedDispatchParallel(t *testing.T) {
	proveTierFleet(t, vcpu.EngineCached, consolidationBuilder(t))
}
