package migrate

import (
	"testing"

	"govisor/internal/mem"
)

// TestPostCopyReportCountsDemandFills: demand-fill costs must land in
// rep.TotalCycles, not only on the destination clock. Regression for the
// undercount where the PageSource hook charged dst.CPU silently.
func TestPostCopyReportCountsDemandFills(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	opt := DefaultStreamOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 8
	rep, err := StreamMigrate(src, dst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteFills == 0 {
		t.Fatalf("push-interleaved post-copy produced no demand fills; test is vacuous")
	}
	fillCost := rep.RemoteFills * (opt.Link.RTTCycles + opt.Link.TxCycles(pageWireSize))
	if rep.TotalCycles < rep.DowntimeCycles+fillCost {
		t.Fatalf("TotalCycles %d omits demand-fill cost (downtime %d + fills %d)",
			rep.TotalCycles, rep.DowntimeCycles, fillCost)
	}
	verifyDestRuns(t, dst)
}

// TestPostCopyDemandOnlyReleasesSource: with no background push, the
// PageSource hook must clear itself once every present source page has
// been pulled — otherwise demand-only mode pins the source forever.
func TestPostCopyDemandOnlyReleasesSource(t *testing.T) {
	src, dst := pair(t, 16, 2000)
	opt := DefaultStreamOptions()
	opt.Mode = PostCopy
	opt.PostCopyPushChunk = 0 // demand-only
	if _, err := StreamMigrate(src, dst, opt); err != nil {
		t.Fatal(err)
	}
	hook := dst.PageSource
	if hook == nil {
		t.Fatalf("demand-only post-copy did not install a PageSource")
	}
	// Pull every present source page through the hook, as destination
	// faults would.
	pages := src.Mem.Pages()
	var pulled uint64
	for gfn := uint64(0); gfn < pages; gfn++ {
		if src.Mem.Frame(gfn) == mem.NoFrame {
			if _, ok := hook(gfn); ok {
				t.Fatalf("hook served a page the source does not have (gfn %d)", gfn)
			}
			continue
		}
		if _, ok := hook(gfn); ok {
			pulled++
		}
	}
	if pulled != src.Mem.Present() {
		t.Fatalf("pulled %d pages, source has %d present", pulled, src.Mem.Present())
	}
	if dst.PageSource != nil {
		t.Fatalf("PageSource still set after all %d present pages pulled — source pinned forever", pulled)
	}
	// Re-pulling an already-sent page must fall back to demand-zero.
	if _, ok := hook(0); ok {
		t.Fatalf("hook re-served an already-transferred page")
	}
}
