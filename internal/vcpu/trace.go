package vcpu

import (
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Hot-trace execution: the layer above block chaining. The chain cache
// (icache.go) records each terminator's validated successor; once a link has
// been consumed hot — traceHotThreshold consecutive validated consumes — the
// engine follows the links forward and lowers the stable multi-block
// straight-line run into a trace: one entry check over every constituent
// page (content version + read-only mmu.CheckFetchSnap revalidation), one
// wrap-safe horizon admission over the whole run's worst-case cycle span,
// and then block bodies, inline terminators and page-boundary crossings
// retire back to back with batched cycle/instret accounting. A trace whose
// tail terminator re-enters its own head (a hot loop) keeps iterating inside
// the trace, paying the outer fetch loop once per pass instead of once per
// block.
//
// Invisibility is inherited from the layers below and re-proven at each
// boundary:
//
//   - The entry check is pure reads (CheckFetchSnap does no bookkeeping);
//     a rejected entry falls back to the block path having changed nothing.
//   - Execution replays exactly what the block path would have done: hop
//     bodies run through the same retireRun body the superblock engine
//     uses, hop transitions replay the chain-consume / crossing bookkeeping
//     (page version + mmu.ChainFetch + noteChainHit) per boundary per pass,
//     and inline terminators replay the per-instruction path's fetch
//     (ReplayFetch) and icache-hit accounting before executing through the
//     same executors.
//   - Skipped loop-top event checks cannot fire inside an admitted pass:
//     the admission span counts every instruction including inline
//     terminators, nothing inside a trace latches STIMECMP or makes a new
//     interrupt pending (CSR writes are system ops, never chain sources),
//     and each extra loop iteration re-admits against the freshly flushed
//     clock.
//   - Any surprise — guest trap, SMC into the executing page, TLB
//     generation change under a fetch, a boundary that no longer validates
//     — demotes back to the block path at the exact instruction boundary
//     where the untraced run would have noticed, with accounting flushed
//     for everything that actually retired.
//
// The whole engine is host-side and runs only at EngineTraced; the suites in
// internal/guest prove guest-visible state byte-identical to the oracle.

const (
	// traceHotThreshold is how many consecutive validated consumes a chain
	// link needs before the engine attempts to lower a trace through it.
	traceHotThreshold = 8
	// maxTraceHops caps the constituent blocks of one trace; longer chains
	// split at the cap and the tail executes as ordinary chained blocks.
	maxTraceHops = 8
	// maxTraces bounds the per-CPU trace store; registration past the bound
	// evicts the least recently entered trace.
	maxTraces = 64
	// traceFailLimit is how many consecutive entry rejections a trace
	// survives before it is dropped for re-formation from fresh links.
	traceFailLimit = 4
)

// traceHop pins one constituent block at formation time: the successor PC
// and guest-physical page the chain link resolved to. Entry validation
// re-derives everything else (page object, slot, block shape) from the live
// links so a trace never trusts stale pointers.
type traceHop struct {
	pc  uint64
	gfn uint64
}

// rtHop is the entry-validated runtime state of one hop, rebuilt by every
// runTrace call: the live predecoded page, the consumed link (nil for hop
// 0, whose validation the outer loop's chain consume already performed),
// and the block shape. term is the slot after the body — a terminator slot,
// or instPerPage when the body runs flush to the page boundary (a crossing).
type rtHop struct {
	p    *decodedPage
	link *chainLink
	gfn  uint64
	slot uint64
	n    uint64
	term uint64
}

// trace is a lowered multi-block run, entered through headLink. tailTerm
// marks a closed loop: the last hop's terminator was observed (at formation)
// to re-enter the head through tailLink, so an admitted pass may iterate.
type trace struct {
	headPC   uint64
	headGfn  uint64
	tailTerm bool
	headLink *chainLink
	tailLink *chainLink
	hops     []traceHop
	rt       [maxTraceHops]rtHop
	lastUse  uint64
	fails    uint8
}

// registerTrace adds a formed trace to the store, evicting the least
// recently entered trace (ties broken by registration order — the scan is
// over a slice, so the choice is deterministic run to run) when full.
func (ic *ICache) registerTrace(tr *trace) {
	if len(ic.traces) >= maxTraces {
		victim := 0
		for i, t := range ic.traces {
			if t.lastUse < ic.traces[victim].lastUse {
				victim = i
			}
		}
		ic.dropTrace(ic.traces[victim])
	}
	ic.traces = append(ic.traces, tr)
	ic.Stats.TraceFormations++
}

// dropTrace removes a trace from the store and unhooks its entry link.
// The headLink identity check matters: setChain overwrites link structs
// wholesale (clearing tr and heat), so the slot may already belong to a
// newer trace this one must not orphan.
func (ic *ICache) dropTrace(tr *trace) {
	for i, t := range ic.traces {
		if t == tr {
			ic.traces = append(ic.traces[:i], ic.traces[i+1:]...)
			break
		}
	}
	if tr.headLink.tr == tr {
		tr.headLink.tr = nil
	}
	ic.Stats.TraceInvalidations++
}

// invalidateTraces drops every registered trace — the big hammer for
// whole-cache resets; steady-state staleness is handled per entry check.
func (ic *ICache) invalidateTraces() {
	for len(ic.traces) > 0 {
		ic.dropTrace(ic.traces[len(ic.traces)-1])
	}
}

// formTrace attempts to lower a trace through l, a chain link that just
// validated its traceHotThreshold-th consecutive consume. It walks the
// chain forward from l's target, accepting each continuation only while it
// is provable right now — the terminator is a pure control transfer with a
// recorded link whose target page version matches and whose translation
// snapshot revalidates (read-only CheckFetchSnap; formation must not
// perturb MMU bookkeeping). The walk closes into a loop when it returns to
// l itself — the entry link is the back edge — which marks the trace
// tailTerm. A walk that yields fewer than two hops and no closed loop has
// nothing to amortize; the heat resets so formation retries after the
// links warm further.
func (c *CPU) formTrace(l *chainLink) {
	headP, headSlot := l.page, uint64(l.tslot)
	if uint64(headP.blkLen[headSlot]) < 2 {
		l.heat = 0
		return
	}
	tr := &trace{headPC: l.pc, headGfn: l.gfn, headLink: l}
	tr.hops = append(tr.hops, traceHop{pc: l.pc, gfn: l.gfn})
	p, slot := headP, headSlot
	user := c.Priv == PrivU
	for len(tr.hops) < maxTraceHops {
		n := uint64(p.blkLen[slot])
		if n == 0 {
			break
		}
		ts := slot + n
		var src uint16
		if ts == instPerPage {
			src = instPerPage - 1 // page-boundary pseudo-terminator
		} else {
			// The terminator must be a control transfer the trace can
			// retire inline; system ops and invalid slots end the walk.
			if !isa.IsChainSource(isa.Op(p.raw[ts] >> 26)) {
				break
			}
			src = uint16(ts)
		}
		nl := p.chainAt(src)
		if nl == nil || c.Mem.PageVersion(nl.gfn) != nl.page.ver ||
			!c.MMU.CheckFetchSnap(&nl.snap, nl.pc, user) {
			break
		}
		if nl == l {
			// The walk consumed its own entry link: a closed loop whose
			// tail re-enters the head every pass.
			tr.tailTerm = true
			tr.tailLink = nl
			break
		}
		if nl.page.blkLen[nl.tslot] == 0 {
			break
		}
		tr.hops = append(tr.hops, traceHop{pc: nl.pc, gfn: nl.gfn})
		p, slot = nl.page, uint64(nl.tslot)
	}
	if !tr.tailTerm && len(tr.hops) < 2 {
		l.heat = 0
		return
	}
	c.ICache.registerTrace(tr)
	l.tr = tr
}

// traceAdmissible is the trace engine's event-horizon admission: the same
// wrap-guarded quantum/STIMECMP span check the superblock engine makes, run
// once over the whole trace pass's worst-case cycle span. Admitting the
// total span implies every per-block admission the unchained run would make
// along the pass (each suffix span is no larger, and actual cycles spent
// never exceed the worst case already subtracted), so event boundaries land
// on exactly the same instruction either way.
//
//govisor:pair blockAdmissible
func (c *CPU) traceAdmissible(n, memOps, deadline uint64) bool {
	return c.blockAdmissible(n, memOps, deadline)
}

// traceReject records an entry-check failure: the trace demotes to the
// block path for this dispatch, and traceFailLimit consecutive rejections
// drop it entirely so formation can restart from fresh links.
func (c *CPU) traceReject(tr *trace) (Exit, bool, bool) {
	c.ICache.Stats.TraceDemotions++
	tr.fails++
	if tr.fails >= traceFailLimit {
		c.ICache.dropTrace(tr)
	}
	return Exit{}, false, false
}

// traceTerm statuses.
const (
	termOK      = iota // terminator retired and control went where expected
	termBail           // fetch replay failed; the terminator did not retire
	termDiverge        // terminator retired but control left the trace
	termExit           // Run must return c.pendExit
)

// traceTerm retires one inline terminator (slot term of page p, the current
// PC) and reports whether control continued to expectPC. It replays exactly
// the per-instruction path's bookkeeping for this fetch: the memoized
// same-page translation via ReplayFetch, then the icache lookup hit (the
// MRU slot is this page — the hop body just ran from it, and nothing inside
// the hop can have changed the page's version without ending it as stSMC),
// then the slot's lazy decode and the same executor the outer loop would
// call. Cycle/instret accounting stays with the caller's batch.
func (c *CPU) traceTerm(p *decodedPage, term uint64, expectPC uint64) int {
	if !c.MMU.ReplayFetch(c.PC) {
		return termBail
	}
	ic := c.ICache
	ic.tick++
	p.lastUse = ic.tick
	ic.Stats.Hits++
	j := term
	if p.valid[j>>6]&(1<<(j&63)) == 0 {
		p.ins[j] = isa.Decode(p.raw[j])
		p.fn[j] = execTable.For(p.ins[j].Op)
		p.valid[j>>6] |= 1 << (j & 63)
	}
	if st := p.fn[j](c, p.ins[j], p.raw[j]); st == stExit {
		return termExit
	}
	if c.PC != expectPC {
		return termDiverge
	}
	return termOK
}

// runTrace attempts to execute one admitted pass of tr — or, for a closed
// loop, as many passes as keep re-admitting — starting from the chain
// consume the outer loop just performed through tr.headLink. dispatched
// reports whether the trace ran at all; when false nothing was perturbed
// and the caller falls through to the superblock path. When done is true,
// Run must return ex; otherwise the outer loop resumes at the current PC.
func (c *CPU) runTrace(tr *trace, deadline uint64) (ex Exit, done, dispatched bool) {
	ic := c.ICache
	user := c.Priv == PrivU
	nh := len(tr.hops)

	// Entry check: one read-only validation pass over every constituent
	// page. Hop 0 needs no revalidation — the outer loop's chain consume
	// just proved it (PC recurred, version matched, ChainFetch replayed the
	// fetch bookkeeping). Each later hop is re-derived from the live link
	// its predecessor's terminator recorded, and must still resolve to the
	// formation-time successor with an unchanged page version and a
	// translation snapshot CheckFetchSnap can prove current.
	hl := tr.headLink
	hp, slot := hl.page, uint64(hl.tslot)
	var totalN, totalMem uint64
	for k := 0; k < nh; k++ {
		rt := &tr.rt[k]
		if k == 0 {
			rt.link, rt.gfn = nil, hl.gfn
		} else {
			prev := &tr.rt[k-1]
			src := uint16(prev.term)
			if prev.term == instPerPage {
				src = instPerPage - 1
			}
			l := prev.p.chainAt(src)
			h := &tr.hops[k]
			if l == nil || l.pc != h.pc || l.gfn != h.gfn ||
				c.Mem.PageVersion(l.gfn) != l.page.ver ||
				!c.MMU.CheckFetchSnap(&l.snap, l.pc, user) {
				return c.traceReject(tr)
			}
			hp, slot = l.page, uint64(l.tslot)
			rt.link, rt.gfn = l, l.gfn
		}
		n := uint64(hp.blkLen[slot])
		if n == 0 {
			return c.traceReject(tr)
		}
		rt.p, rt.slot, rt.n, rt.term = hp, slot, n, slot+n
		totalN += n
		totalMem += uint64(hp.blkMem[slot])
		if rt.term < instPerPage && (k < nh-1 || tr.tailTerm) {
			totalN++ // this hop's terminator retires inline
		}
	}
	if tr.tailTerm {
		last := &tr.rt[nh-1]
		tl := tr.tailLink
		if last.term == instPerPage || last.p.chainAt(uint16(last.term)) != tl ||
			tl.pc != tr.headPC || c.Mem.PageVersion(tl.gfn) != tl.page.ver ||
			!c.MMU.CheckFetchSnap(&tl.snap, tl.pc, user) {
			return c.traceReject(tr)
		}
	}

	if !c.traceAdmissible(totalN, totalMem, deadline) {
		// Not staleness — the quantum or timer horizon is too close for a
		// whole pass. The block path runs this dispatch and event
		// boundaries land exactly where the untraced run puts them.
		return Exit{}, false, false
	}
	tr.fails = 0
	tr.lastUse = ic.tick
	ic.Stats.TraceEntries++

	instr := c.Costs.Instr
	var retired uint64
	// flushExit ends the pass at the current instruction boundary with
	// accounting batched for everything that actually retired. (retired is
	// passed by value so the hot loop's counter stays in a register.)
	flushExit := func(retired uint64) {
		c.Cycles += retired * instr
		c.Instret += retired
		c.codeGfn = mem.NoFrame
	}
	for {
		for k := 0; k < nh; k++ {
			rt := &tr.rt[k]
			c.codeGfn = rt.gfn
			r, st := c.retireRun(rt.p, rt.slot, rt.n, rt.p.blkMem[rt.slot] == 0)
			retired += r
			if st != stOK {
				flushExit(retired)
				if st == stExit {
					return c.pendExit, true, true
				}
				// Guest trap, SMC into this page, or a TLB generation
				// change under the fetch stream: demote in place.
				ic.Stats.TraceDemotions++
				return Exit{}, false, true
			}
			if k == nh-1 {
				break
			}
			next := &tr.rt[k+1]
			if rt.term == instPerPage {
				// Page-boundary crossing: replay runBlock's continuation —
				// arm the pseudo-terminator, then prove the recorded link
				// still exact before following it.
				c.chainPage, c.chainSlot, c.chainArmed = rt.p, instPerPage-1, true
				if c.Mem.PageVersion(next.link.gfn) != next.link.page.ver ||
					!c.MMU.ChainFetch(&next.link.snap, c.PC, user) {
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return Exit{}, false, true
				}
				c.chainArmed = false
				ic.noteChainHit(next.link.gfn, next.link.page)
				ic.Stats.Crossings++
			} else {
				switch c.traceTerm(rt.p, rt.term, next.link.pc) {
				case termBail:
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return Exit{}, false, true
				case termExit:
					retired++
					flushExit(retired)
					return c.pendExit, true, true
				case termDiverge:
					// Control left the trace mid-pass (a branch changed
					// polarity). Arm the source so the outer loop records
					// or consumes the new edge, exactly as the
					// per-instruction path would have.
					retired++
					c.chainPage, c.chainSlot, c.chainArmed = rt.p, uint16(rt.term), true
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return Exit{}, false, true
				}
				retired++
				// Terminator transition: replay the chain consume the
				// outer loop would perform for this armed source.
				c.chainPage, c.chainSlot, c.chainArmed = rt.p, uint16(rt.term), true
				if c.Mem.PageVersion(next.link.gfn) != next.link.page.ver ||
					!c.MMU.ChainFetch(&next.link.snap, c.PC, user) {
					flushExit(retired)
					ic.Stats.TraceDemotions++
					return Exit{}, false, true
				}
				c.chainArmed = false
				ic.noteChainHit(next.link.gfn, next.link.page)
			}
		}
		last := &tr.rt[nh-1]
		if !tr.tailTerm {
			if last.term == instPerPage {
				// The pass ends flush at a page boundary with no admitted
				// continuation in the trace: arm the pseudo-terminator and
				// let the outer loop continue the chain, exactly as
				// runBlock's boundary break does.
				c.chainPage, c.chainSlot, c.chainArmed = last.p, instPerPage-1, true
			}
			break
		}
		// Closed loop: retire the tail terminator; control should return
		// to the head.
		switch c.traceTerm(last.p, last.term, tr.headPC) {
		case termBail:
			flushExit(retired)
			ic.Stats.TraceDemotions++
			return Exit{}, false, true
		case termExit:
			retired++
			flushExit(retired)
			return c.pendExit, true, true
		case termDiverge:
			// The loop exited through its tail branch — a normal trace
			// end, not a demotion. Arm the source so the outer loop
			// handles the exit edge's own chain link.
			retired++
			c.chainPage, c.chainSlot, c.chainArmed = last.p, uint16(last.term), true
			flushExit(retired)
			return Exit{}, false, true
		}
		retired++
		// Flush before re-admission so the horizon compares against the
		// live clock, then replay the back-edge consume for the next pass.
		c.Cycles += retired * instr
		c.Instret += retired
		retired = 0
		c.chainPage, c.chainSlot, c.chainArmed = last.p, uint16(last.term), true
		tl := tr.tailLink
		if !c.traceAdmissible(totalN, totalMem, deadline) ||
			c.Mem.PageVersion(tl.gfn) != tl.page.ver ||
			!c.MMU.ChainFetch(&tl.snap, c.PC, user) {
			// Horizon reached or the back edge went stale: exit armed at
			// the head boundary; the outer loop's event checks and chain
			// consume take over at the same instruction.
			c.codeGfn = mem.NoFrame
			return Exit{}, false, true
		}
		c.chainArmed = false
		ic.noteChainHit(tl.gfn, tl.page)
		tr.lastUse = ic.tick
		ic.Stats.TraceEntries++
	}
	flushExit(retired)
	return Exit{}, false, true
}
