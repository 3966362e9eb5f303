package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"govisor/internal/isa"
)

// FaultKind classifies guest-physical access failures that escalate to the
// VMM (the software analogue of an EPT violation / host page fault).
type FaultKind uint8

// Guest-physical fault kinds.
const (
	FaultNone       FaultKind = iota
	FaultNotPresent           // gfn has no host frame (demand page, ballooned out, post-copy)
	FaultWriteProt            // page is write-protected by the VMM (shadow PT tracking, dirty logging)
	FaultBeyondRAM            // gpa outside guest RAM and outside any MMIO window
)

// Fault describes a guest-physical access failure.
type Fault struct {
	Kind   FaultKind
	GPA    uint64
	Access isa.Access
}

// Error implements error for plumbing through test helpers.
func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %v fault at gpa %#x (%v)", f.Kind, f.GPA, f.Access)
}

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultNotPresent:
		return "not-present"
	case FaultWriteProt:
		return "write-protect"
	case FaultBeyondRAM:
		return "beyond-ram"
	}
	return "fault?"
}

const wordsPerBitmap = 64

// GuestPhys is one VM's guest-physical address space: a gfn → hfn mapping
// over the host pool, with per-page state used by the VMM's memory services:
//
//   - dirty bits (live migration, incremental snapshots)
//   - write-protect bits (shadow page-table coherence; pre-copy rounds)
//   - COW bits (pages shared with other VMs by dedup or cloning)
type GuestPhys struct {
	pool   *Pool
	npages uint64
	hfn    []uint64 // NoFrame when unmapped

	dirty   []uint64 // bitmaps, one bit per gfn
	wprot   []uint64
	cow     []uint64
	pinned  []uint64
	present uint64 // count of mapped pages

	// ver holds one content-version counter per page, bumped by every event
	// that can change what a read of the page returns: guest stores,
	// privileged VMM writes, demand population, ballooning unmap, migration
	// page copies, and remaps from dedup or cloning. Caches of derived page
	// content (the vCPU's decoded-instruction cache) validate with a single
	// compare against PageVersion instead of registering callbacks. Counters
	// are accessed atomically so a version observer on another goroutine
	// (a concurrent cache validation, a scanner probing for stability) never
	// races the owning VM's writes; everything else in GuestPhys remains
	// single-owner — one goroutine at a time, with cross-VM services
	// confined to epoch barriers.
	ver []uint64

	// hint is the preferred pool shard for this space's allocations; hosts
	// assign each VM a distinct hint so concurrent demand fills mostly stay
	// off each other's locks.
	hint int

	// rmemo is the read fast path: a tiny direct-mapped cache of resolved
	// readable page slices, validated per access against the page's content
	// version. Every event that could change what a read returns (stores,
	// unmap, remap, demand fill, COW break, migration copies) bumps the
	// version, so a hit proves the cached slice still is what resolveRead +
	// Pool.Data would produce — the fast path is exact, it only skips host
	// work. Reads have no guest-visible side effects (no stats, no dirty
	// bits), so nothing needs replaying on a hit.
	rmemo [rmemoSlots]readMemo

	// wmemo is the write fast path: a direct-mapped cache of resolveWrite
	// verdicts. A valid entry proves the page is present, not write-
	// protected, not copy-on-write, and already dirty, so a memoized store
	// skips every per-store bitmap test and writes the cached backing array
	// directly. Validity is guarded by wepoch, the write-epoch counter:
	// every event that can change a write verdict — CollectDirty clearing
	// dirty bits, write-protect flips, COW creation (dedup merges, clone
	// sharing) and breaks, map/unmap/populate remaps, migration restores —
	// bumps the epoch and thereby invalidates every entry at once. See
	// WriteUintMemo for the per-store version-bump coalescing the memo
	// layers on top.
	wmemo  [wmemoSlots]writeMemo
	wepoch uint64 // write-epoch counter (atomic)

	// smemo is the DMA fast path: a direct-mapped cache of resolved span
	// pages shared by ReadSpan, WriteSpan and ReadRaw. Like the write memo
	// it validates against wepoch, so one epoch bump invalidates every
	// entry; see span.go for the verdict argument. noSpanDMA selects the
	// page-by-page path the oracle engine tier runs.
	smemo     [spanSlots]spanEntry
	noSpanDMA bool

	// Stats visible to experiments.
	DirtySets   uint64 // writes that newly dirtied a page
	COWBreaks   uint64
	DemandFills uint64

	// Host-side write-memo telemetry. Like the icache counters these have
	// no guest-visible meaning: no simulated statistic may depend on them.
	WMemoHits  uint64 // stores served by the memoized fast path
	WMemoFills uint64 // memo entries (re)installed by the slow path
}

// rmemoSlots is the read fast path's direct-mapped size; straight-line
// loops stream a handful of pages, the rest stay on the full path.
const rmemoSlots = 8

// readMemo caches one resolved readable page. data == nil means the page is
// present but logically zero (an unmaterialized frame). gfn == NoFrame marks
// an empty slot, so a zero-value memo can never falsely match gfn 0.
type readMemo struct {
	gfn  uint64
	ver  uint64
	data []byte
}

// wmemoSlots is the write fast path's direct-mapped size, matching the read
// memo: store bursts stream a handful of destination pages.
const wmemoSlots = 8

// writeMemo caches one resolved writable page. gfn is NoFrame while the slot
// is empty and is accessed atomically: a concurrent version observer
// (PageVersion on another goroutine) reads it to find the slot's page, while
// only the owning VM's goroutine fills it. epoch is the space's write epoch
// at fill time — the entry is valid only while they still match. armed is
// the version-coalescing state (atomic): 1 means a version bump covering
// every memoized store since the last observation of the page's version is
// already in place, so further memoized stores need not bump again;
// PageVersion clears it, forcing the next store to bump (and thereby keeps
// the "same version ⇒ unchanged content between the two observations"
// contract exact). data is the materialized writable backing array — never
// nil, because the fill path materializes the frame.
type writeMemo struct {
	gfn   uint64 // atomic
	epoch uint64
	armed uint32 // atomic
	data  []byte
}

// NewGuestPhys creates an address space of size bytes (rounded up to pages)
// over pool. No pages are populated; callers either PopulateAll (eager) or
// let not-present faults drive demand population.
func NewGuestPhys(pool *Pool, size uint64) *GuestPhys {
	np := isa.PageRoundUp(size) >> isa.PageShift
	g := &GuestPhys{
		pool:   pool,
		npages: np,
		hfn:    make([]uint64, np),
		dirty:  make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		wprot:  make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		cow:    make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		pinned: make([]uint64, (np+wordsPerBitmap-1)/wordsPerBitmap),
		ver:    make([]uint64, np),
	}
	for i := range g.hfn {
		g.hfn[i] = NoFrame
	}
	for i := range g.rmemo {
		g.rmemo[i].gfn = NoFrame
	}
	for i := range g.smemo {
		g.smemo[i].gfn = NoFrame
	}
	for i := range g.wmemo {
		// Published atomically like every other wmemo.gfn store: a memo
		// probe may race with construction once the GuestPhys escapes.
		atomic.StoreUint64(&g.wmemo[i].gfn, NoFrame)
	}
	return g
}

// Pool returns the backing host pool.
func (g *GuestPhys) Pool() *Pool { return g.pool }

// Pages returns the number of guest-physical pages.
func (g *GuestPhys) Pages() uint64 { return g.npages }

// Size returns the RAM size in bytes.
func (g *GuestPhys) Size() uint64 { return g.npages << isa.PageShift }

// Present returns the number of currently mapped pages.
func (g *GuestPhys) Present() uint64 { return g.present }

// Contains reports whether gpa falls inside guest RAM.
func (g *GuestPhys) Contains(gpa uint64) bool { return gpa>>isa.PageShift < g.npages }

func bit(bm []uint64, i uint64) bool { return bm[i/wordsPerBitmap]&(1<<(i%wordsPerBitmap)) != 0 }
func setBit(bm []uint64, i uint64)   { bm[i/wordsPerBitmap] |= 1 << (i % wordsPerBitmap) }
func clearBit(bm []uint64, i uint64) { bm[i/wordsPerBitmap] &^= 1 << (i % wordsPerBitmap) }

// PageVersion returns the content-version counter of gfn. Any two calls that
// return the same value bracket a window in which the page's readable content
// (including its presence) did not change, so derived caches keyed on it stay
// coherent across self-modifying code, ballooning, dedup remaps, COW breaks
// and migration page copies without invalidation callbacks.
//
// Observing a version ends the page's memoized write burst (the armed flag is
// cleared), so the next memoized store bumps the version again: the
// bracketing contract holds exactly — even though stores between two
// observations share a single bump — for any observation ordered with the
// owning VM's stores, i.e. on the owning goroutine (the icache's per-fetch
// validation) or across an epoch barrier (scanners, migration). Both sides
// of the handshake are atomic, so unordered concurrent calls remain
// race-free, but they get only that: an observation racing an in-flight
// memoized store may miss it, so mid-epoch cross-goroutine probes must not
// rely on the bracketing contract (the single-owner discipline already
// confines cross-VM services to barriers).
func (g *GuestPhys) PageVersion(gfn uint64) uint64 {
	if gfn >= g.npages {
		return 0
	}
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	if atomic.LoadUint64(&m.gfn) == gfn && atomic.LoadUint32(&m.armed) != 0 {
		atomic.StoreUint32(&m.armed, 0)
	}
	return atomic.LoadUint64(&g.ver[gfn])
}

// bumpVersion invalidates derived caches of gfn's content. Callers guarantee
// gfn < npages.
func (g *GuestPhys) bumpVersion(gfn uint64) { atomic.AddUint64(&g.ver[gfn], 1) }

// bumpWriteEpoch invalidates every write-memo entry at once. Called by every
// event that can change a resolveWrite verdict; entries revalidate by
// comparing their fill-time epoch.
func (g *GuestPhys) bumpWriteEpoch() { atomic.AddUint64(&g.wepoch, 1) }

// WriteEpoch returns the current write-epoch counter. Exported for the
// invalidation tests and for concurrent observers probing stability; like
// PageVersion it is safe to call from any goroutine.
func (g *GuestPhys) WriteEpoch() uint64 { return atomic.LoadUint64(&g.wepoch) }

// SetAllocHint sets the preferred pool shard for this space's allocations.
func (g *GuestPhys) SetAllocHint(h int) { g.hint = h }

// Frame returns the host frame mapped at gfn, or NoFrame.
func (g *GuestPhys) Frame(gfn uint64) uint64 {
	if gfn >= g.npages {
		return NoFrame
	}
	return g.hfn[gfn]
}

// Map installs hfn at gfn, replacing (and releasing) any previous frame.
// The caller transfers its reference on hfn to the GuestPhys.
func (g *GuestPhys) Map(gfn, hfn uint64) {
	if gfn >= g.npages {
		panic(fmt.Sprintf("mem: Map gfn %d beyond %d", gfn, g.npages))
	}
	if old := g.hfn[gfn]; old != NoFrame {
		g.pool.DecRef(old)
	} else {
		g.present++
	}
	g.hfn[gfn] = hfn
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
}

// MapShared installs hfn at gfn as a shared, copy-on-write page. The caller
// transfers its reference.
func (g *GuestPhys) MapShared(gfn, hfn uint64) {
	g.Map(gfn, hfn)
	setBit(g.cow, gfn)
}

// MarkCOWIfMapped sets the copy-on-write bit on gfn if it still maps hfn.
// The dedup scanner uses it to flip the canonical side of a merge to COW
// without racing a concurrent remap. The content is unchanged (dedup merges
// only identical frames) so the page version stands, but the write verdict
// flips — the canonical owner's next store must break COW, so the write
// epoch must advance.
func (g *GuestPhys) MarkCOWIfMapped(gfn, hfn uint64) {
	if gfn < g.npages && g.hfn[gfn] == hfn {
		setBit(g.cow, gfn)
		g.bumpWriteEpoch()
	}
}

// Unmap removes the mapping at gfn, releasing the frame reference (the
// balloon path). Subsequent access faults with FaultNotPresent.
func (g *GuestPhys) Unmap(gfn uint64) {
	if gfn >= g.npages || g.hfn[gfn] == NoFrame {
		return
	}
	g.pool.DecRef(g.hfn[gfn])
	g.hfn[gfn] = NoFrame
	g.present--
	clearBit(g.cow, gfn)
	clearBit(g.wprot, gfn)
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
}

// Populate demand-allocates a zero frame at gfn if unmapped.
func (g *GuestPhys) Populate(gfn uint64) error {
	if gfn >= g.npages {
		return &Fault{Kind: FaultBeyondRAM, GPA: gfn << isa.PageShift}
	}
	if g.hfn[gfn] != NoFrame {
		return nil
	}
	hfn, err := g.pool.AllocNear(g.hint)
	if err != nil {
		return err
	}
	g.hfn[gfn] = hfn
	g.present++
	g.DemandFills++
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
	return nil
}

// PopulateAll eagerly maps every page (boot-time allocation).
func (g *GuestPhys) PopulateAll() error {
	for gfn := uint64(0); gfn < g.npages; gfn++ {
		if err := g.Populate(gfn); err != nil {
			return err
		}
	}
	return nil
}

// WriteProtect marks gfn so the next write faults with FaultWriteProt (used
// by the shadow-paging engine to track guest page-table pages, and by
// pre-copy migration for dirty logging with page-granularity cost). Either
// direction changes the write verdict, so the write epoch advances.
func (g *GuestPhys) WriteProtect(gfn uint64, on bool) {
	if gfn >= g.npages {
		return
	}
	if on {
		setBit(g.wprot, gfn)
	} else {
		clearBit(g.wprot, gfn)
	}
	g.bumpWriteEpoch()
}

// WriteProtected reports the write-protect bit of gfn.
func (g *GuestPhys) WriteProtected(gfn uint64) bool {
	return gfn < g.npages && bit(g.wprot, gfn)
}

// Pin marks gfn as non-reclaimable: reclaim and swap policies must skip it.
// The VMM pins pages whose eviction would fault recursively (page-table
// pages walked by the MMU, firmware/parameter pages).
func (g *GuestPhys) Pin(gfn uint64) {
	if gfn < g.npages {
		setBit(g.pinned, gfn)
	}
}

// Unpin clears the pin.
func (g *GuestPhys) Unpin(gfn uint64) {
	if gfn < g.npages {
		clearBit(g.pinned, gfn)
	}
}

// Pinned reports whether gfn is exempt from reclaim.
func (g *GuestPhys) Pinned(gfn uint64) bool {
	return gfn < g.npages && bit(g.pinned, gfn)
}

// IsCOW reports whether gfn currently maps a shared frame.
func (g *GuestPhys) IsCOW(gfn uint64) bool {
	return gfn < g.npages && bit(g.cow, gfn)
}

// Dirty reports the dirty bit of gfn.
func (g *GuestPhys) Dirty(gfn uint64) bool {
	return gfn < g.npages && bit(g.dirty, gfn)
}

// MarkDirty sets the dirty bit explicitly (DMA by device models).
func (g *GuestPhys) MarkDirty(gfn uint64) {
	if gfn < g.npages && !bit(g.dirty, gfn) {
		setBit(g.dirty, gfn)
		g.DirtySets++
	}
}

// CollectDirty appends all dirty gfns to dst, clears their bits, and returns
// the extended slice. Migration calls this once per pre-copy round. Clearing
// dirty bits changes no page content (no version bumps), but it voids the
// write memo's "already dirty" assumption: the epoch bump forces the next
// store to every page back through resolveWrite, which re-dirties it — so a
// post-round store always lands in the next round's dirty set.
func (g *GuestPhys) CollectDirty(dst []uint64) []uint64 {
	g.bumpWriteEpoch()
	for w, word := range g.dirty {
		for word != 0 {
			b := word & -word
			i := uint64(w*wordsPerBitmap) + uint64(bits.TrailingZeros64(b))
			if i < g.npages {
				dst = append(dst, i)
			}
			word &^= b
		}
		g.dirty[w] = 0
	}
	return dst
}

// DirtyCount returns the number of dirty pages without clearing.
func (g *GuestPhys) DirtyCount() uint64 {
	var n uint64
	for _, w := range g.dirty {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}

// resolveWrite prepares gfn for writing: presence, write-protection and COW
// are all checked here, so every store in the machine funnels through one
// place. It returns the writable hfn.
func (g *GuestPhys) resolveWrite(gpa uint64) (uint64, *Fault) {
	gfn := gpa >> isa.PageShift
	if gfn >= g.npages {
		return 0, &Fault{Kind: FaultBeyondRAM, GPA: gpa, Access: isa.AccWrite}
	}
	if bit(g.wprot, gfn) {
		return 0, &Fault{Kind: FaultWriteProt, GPA: gpa, Access: isa.AccWrite}
	}
	hfn := g.hfn[gfn]
	if hfn == NoFrame {
		return 0, &Fault{Kind: FaultNotPresent, GPA: gpa, Access: isa.AccWrite}
	}
	if bit(g.cow, gfn) {
		nfn, err := g.pool.BreakCOWNear(hfn, g.hint)
		if err != nil {
			// Pool exhausted: surface as not-present so the VMM's overcommit
			// policy can reclaim and retry.
			return 0, &Fault{Kind: FaultNotPresent, GPA: gpa, Access: isa.AccWrite}
		}
		g.hfn[gfn] = nfn
		clearBit(g.cow, gfn)
		g.COWBreaks++
		hfn = nfn
		// The frame under the gfn changed: any write-memo entry caching the
		// old backing array is stale.
		g.bumpWriteEpoch()
	}
	if !bit(g.dirty, gfn) {
		setBit(g.dirty, gfn)
		g.DirtySets++
	}
	g.bumpVersion(gfn)
	return hfn, nil
}

func (g *GuestPhys) resolveRead(gpa uint64, acc isa.Access) (uint64, *Fault) {
	gfn := gpa >> isa.PageShift
	if gfn >= g.npages {
		return 0, &Fault{Kind: FaultBeyondRAM, GPA: gpa, Access: acc}
	}
	hfn := g.hfn[gfn]
	if hfn == NoFrame {
		return 0, &Fault{Kind: FaultNotPresent, GPA: gpa, Access: acc}
	}
	return hfn, nil
}

// Read copies len(buf) bytes from gpa; the range may span pages.
func (g *GuestPhys) Read(gpa uint64, buf []byte) *Fault {
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		hfn, f := g.resolveRead(gpa, isa.AccRead)
		if f != nil {
			return f
		}
		g.pool.ReadAt(hfn, off, buf[:n])
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// Write copies buf to gpa; the range may span pages.
func (g *GuestPhys) Write(gpa uint64, buf []byte) *Fault {
	for len(buf) > 0 {
		off := int(gpa & isa.PageMask)
		n := isa.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		hfn, f := g.resolveWrite(gpa)
		if f != nil {
			return f
		}
		g.pool.WriteAt(hfn, off, buf[:n])
		buf = buf[n:]
		gpa += uint64(n)
	}
	return nil
}

// ReadUint reads a naturally aligned size-byte little-endian value
// (size ∈ {1,2,4,8}). This is the interpreter's hot load path: the version-
// validated read memo serves repeat reads of stable pages without the
// frame-resolution walk (m.gfn is only ever a valid gfn, so a match proves
// the version index is in range before it is touched).
func (g *GuestPhys) ReadUint(gpa uint64, size int) (uint64, *Fault) {
	gfn := gpa >> isa.PageShift
	m := &g.rmemo[gfn&(rmemoSlots-1)]
	if m.gfn == gfn && atomic.LoadUint64(&g.ver[gfn]) == m.ver {
		return readUintFrom(m.data, gpa&isa.PageMask, size), nil
	}
	hfn, f := g.resolveRead(gpa, isa.AccRead)
	if f != nil {
		return 0, f
	}
	data := g.pool.Data(hfn)
	*m = readMemo{gfn: gfn, ver: atomic.LoadUint64(&g.ver[gfn]), data: data}
	return readUintFrom(data, gpa&isa.PageMask, size), nil
}

// ReadUintFast is ReadUint's hit-only probe: it serves the value when the
// read memo covers the page (which also proves the address is inside guest
// RAM — only successful in-RAM resolutions fill the memo, so callers may
// skip their Contains/MMIO range checks on a hit) and reports false
// otherwise, performing nothing. Same exactness argument as the hit path of
// ReadUint; the caller falls back to the full path on a miss.
func (g *GuestPhys) ReadUintFast(gpa uint64, size int) (uint64, bool) {
	gfn := gpa >> isa.PageShift
	m := &g.rmemo[gfn&(rmemoSlots-1)]
	if m.gfn == gfn && atomic.LoadUint64(&g.ver[gfn]) == m.ver {
		return readUintFrom(m.data, gpa&isa.PageMask, size), true
	}
	return 0, false
}

// readUintFrom decodes the value at off from a page slice; nil means the
// frame is logically zero.
func readUintFrom(data []byte, off uint64, size int) uint64 {
	if data == nil {
		return 0
	}
	switch size {
	case 1:
		return uint64(data[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(data[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[off:]))
	default:
		return binary.LittleEndian.Uint64(data[off:])
	}
}

// WriteUint writes a naturally aligned size-byte little-endian value.
// This is the unmemoized store path: every call resolves the page and bumps
// its version. Device models, VMM-internal writes and the oracle engine
// tier's stores all use it.
func (g *GuestPhys) WriteUint(gpa uint64, size int, v uint64) *Fault {
	hfn, f := g.resolveWrite(gpa)
	if f != nil {
		return f
	}
	writeUintTo(g.pool.writable(hfn), gpa&isa.PageMask, size, v)
	return nil
}

// WriteUintFast attempts the memoized store fast path: if the write memo
// proves the resolveWrite verdict for gpa's page is unchanged (entry valid
// at the current write epoch), the value is written directly to the cached
// backing array and the per-store bitmap tests, dirty accounting and MMIO
// range checks are all skipped — a valid entry implies the page is inside
// guest RAM, present, writable, private and already dirty, so the slow path
// would have reached the same byte with no guest-visible side effects
// beyond the write itself. The per-store version bump is coalesced: the
// first memoized store after an observation of the page's version bumps it
// (keeping derived caches exactly coherent), later stores in the same
// unobserved burst share that bump. Returns false on a miss; the caller
// falls back to the full path (and WriteUintMemo to refill).
func (g *GuestPhys) WriteUintFast(gpa uint64, size int, v uint64) bool {
	gfn := gpa >> isa.PageShift
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	if atomic.LoadUint64(&m.gfn) != gfn || m.epoch != atomic.LoadUint64(&g.wepoch) {
		return false
	}
	if atomic.LoadUint32(&m.armed) == 0 {
		g.bumpVersion(gfn)
		atomic.StoreUint32(&m.armed, 1)
	}
	writeUintTo(m.data, gpa&isa.PageMask, size, v)
	g.WMemoHits++
	return true
}

// WriteUintMemo is the complete memoized store path — the fast probe
// followed by the fill — for callers that have not already probed
// (the invalidation tests and the fuzz oracle drive it directly).
func (g *GuestPhys) WriteUintMemo(gpa uint64, size int, v uint64) *Fault {
	if g.WriteUintFast(gpa, size, v) {
		return nil
	}
	return g.WriteUintFill(gpa, size, v)
}

// WriteUintFill is WriteUint installing a write-memo entry for the page, so
// subsequent stores to it hit WriteUintFast. Behaviour and guest-visible
// side effects are identical to WriteUint — resolveWrite runs in full,
// including COW breaks, dirty accounting and the version bump; only the
// memo bookkeeping is added. This is the interpreter's store slow path when
// the write memo is enabled: the caller has already probed WriteUintFast,
// so the fill does not re-probe.
func (g *GuestPhys) WriteUintFill(gpa uint64, size int, v uint64) *Fault {
	gfn := gpa >> isa.PageShift
	hfn, f := g.resolveWrite(gpa)
	if f != nil {
		return f
	}
	data := g.pool.writable(hfn)
	m := &g.wmemo[gfn&(wmemoSlots-1)]
	atomic.StoreUint64(&m.gfn, gfn)
	m.epoch = atomic.LoadUint64(&g.wepoch)
	m.data = data
	// resolveWrite just bumped the version for this store; that bump covers
	// the burst until the next observation.
	atomic.StoreUint32(&m.armed, 1)
	g.WMemoFills++
	writeUintTo(data, gpa&isa.PageMask, size, v)
	return nil
}

// writeUintTo encodes the value at off into a materialized page slice.
func writeUintTo(data []byte, off uint64, size int, v uint64) {
	switch size {
	case 1:
		data[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(data[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(data[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(data[off:], v)
	}
}

// WriteUintPriv is WriteUint for the VMM itself: it bypasses write-protect
// bits (the VMM emulating a guest store to a tracked page-table page) while
// still honouring COW and dirty tracking. The temporary protection toggle
// deliberately does not bump the write epoch: a protected page can hold no
// valid memo entry (the WriteProtect that protected it already bumped past
// any fill, and resolveWrite faults on protected pages so none forms while
// it stays protected), WriteUint never installs one, and the space is
// single-owner so no memoized store can interleave inside the window —
// bumping here would only flush the whole memo on every emulated PT write
// under shadow paging.
func (g *GuestPhys) WriteUintPriv(gpa uint64, size int, v uint64) *Fault {
	gfn := gpa >> isa.PageShift
	wasProt := g.WriteProtected(gfn)
	if wasProt {
		clearBit(g.wprot, gfn)
	}
	f := g.WriteUint(gpa, size, v)
	if wasProt {
		setBit(g.wprot, gfn)
	}
	return f
}

// ReadRaw is Read without fault handling for VMM-internal use (migration,
// snapshots) where pages are known present; unmapped pages read as zero. It
// probes the span memo first — the migration page copier streams every page
// of a round through here, and a valid entry serves the page as one memcpy —
// installing on miss so the next round's copy of a stable page hits.
func (g *GuestPhys) ReadRaw(gfn uint64, buf []byte) {
	e := &g.smemo[gfn&(spanSlots-1)]
	if e.gfn == gfn && e.epoch == atomic.LoadUint64(&g.wepoch) {
		copy(buf, e.data)
		return
	}
	hfn := g.Frame(gfn)
	if hfn == NoFrame {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	if data := g.pool.Data(hfn); data != nil {
		copy(buf, data)
		if !g.noSpanDMA {
			*e = spanEntry{gfn: gfn, epoch: atomic.LoadUint64(&g.wepoch), data: data}
		}
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

// WriteRaw installs page content at gfn, populating if needed, bypassing
// write-protection and COW semantics (migration restore path). The dirty
// bit is left untouched. The write epoch advances unconditionally — the
// frame may change under the gfn (COW split), and migration restores are
// cold enough that the conservative bump costs nothing.
func (g *GuestPhys) WriteRaw(gfn uint64, buf []byte) error {
	if err := g.Populate(gfn); err != nil {
		return err
	}
	hfn := g.hfn[gfn]
	if g.pool.Shared(hfn) {
		nfn, err := g.pool.BreakCOWNear(hfn, g.hint)
		if err != nil {
			return err
		}
		g.hfn[gfn] = nfn
		clearBit(g.cow, gfn)
	}
	g.pool.WriteAt(g.hfn[gfn], 0, buf)
	g.bumpVersion(gfn)
	g.bumpWriteEpoch()
	return nil
}

// Release returns every frame to the pool (VM teardown).
func (g *GuestPhys) Release() {
	for gfn := uint64(0); gfn < g.npages; gfn++ {
		g.Unmap(gfn)
	}
}
