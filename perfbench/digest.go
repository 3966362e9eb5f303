package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"

	"govisor/internal/core"
	"govisor/internal/isa"
	"govisor/internal/mem"
)

// digester accumulates guest-visible and simulated state into one hash.
// Fields are written explicitly, one by one, so that a later change that
// adds a host-side counter to a stats struct does not move any digest; only
// a change to what the guest or the simulated machine observes does.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digester) s(v string) {
	d.u(uint64(len(v)))
	d.h.Write([]byte(v))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// vm folds in one VM's guest-visible state — lifecycle, halt code,
// registers, CSRs, cycles, retired instructions, markers, UART output and
// a hash of every present RAM page — plus every simulated statistic: exit
// counts, VMM counters, MMU, shadow engine, TLB and guest-memory counters.
// The host-side telemetry (icache, chain, trace and write-memo counters)
// is deliberately left out; it is checked for determinism separately.
func (d *digester) vm(vm *core.VM) {
	c := vm.CPU
	d.u(uint64(vm.State), uint64(vm.HaltCode), c.PC, uint64(c.Priv), c.Cycles, c.Instret)
	d.u(c.X[:]...)
	r := c.CSR
	d.u(r.Sstatus, r.Sie, r.Stvec, r.Sscratch, r.Sepc, r.Scause, r.Stval, r.Sip, r.Stimecmp, r.Satp)
	d.u(vm.Params[:]...)
	for _, m := range vm.Markers {
		d.u(m.ID, m.Cycles)
	}
	d.s(vm.Output())
	d.ram(vm.Mem)

	d.u(c.Stats.Exits[:]...)
	d.u(c.Stats.Traps, c.Stats.Interrupts)
	s := vm.Stats
	d.u(s.Hypercalls, s.ParaMaps, s.ParaBatches, s.Injections, s.PTWriteEmuls,
		s.ShadowFills, s.DemandFills, s.RemoteFills, s.MMIOExits)
	m := vm.MMUCtx.Stats
	d.u(m.Translations, m.Walks, m.WalkRefs, m.NestedRefs, m.GuestFaults, m.ShadowMisses)
	if sh := vm.MMUCtx.Shadow; sh != nil {
		e := sh.Stats
		d.u(e.Fills, e.FillRefs, e.WPInstalls, e.PTWriteTraps, e.Invalidations, e.SpaceFlushes, e.Spaces)
	}
	t := vm.MMUCtx.TLB.Stats
	d.u(t.Hits, t.Misses, t.Flushes, t.PageFlushes, t.Evictions, t.GlobalShoots)
	g := vm.Mem
	d.u(g.DirtySets, g.COWBreaks, g.DemandFills, g.Present(), g.DirtyCount())
}

// ram folds in every present page as (gfn, content). Pages are read
// straight from the pool so hashing leaves the span memo untouched.
func (d *digester) ram(g *mem.GuestPhys) {
	var zero [isa.PageSize]byte
	for gfn := uint64(0); gfn < g.Pages(); gfn++ {
		hfn := g.Frame(gfn)
		if hfn == mem.NoFrame {
			continue
		}
		d.u(gfn)
		if data := g.Pool().Data(hfn); data != nil {
			d.h.Write(data)
		} else {
			d.h.Write(zero[:])
		}
	}
}

// ramDigest hashes only RAM — the switchover check of a migration.
func ramDigest(g *mem.GuestPhys) string {
	d := newDigester()
	d.ram(g)
	return d.sum()
}

// referenceFile holds the committed digest of every unit configuration any
// seed can select, keyed by workload and then by unit key. It is produced
// by `perfbench --write-digests perfbench/digests.json` at a commit whose
// guest-visible behaviour is known good; every simulator change must leave
// it valid.
//
//go:embed digests.json
var referenceFile []byte

func loadReference() (map[string]map[string]string, error) {
	ref := map[string]map[string]string{}
	if err := json.Unmarshal(referenceFile, &ref); err != nil {
		return nil, fmt.Errorf("parsing committed digests: %w", err)
	}
	return ref, nil
}

// writeReference runs every unit configuration of every workload once and
// writes the digests to path. A configuration that fails its own checks is
// reported and no file is written.
func writeReference(path string) error {
	ref := map[string]map[string]string{}
	for _, w := range workloads {
		got := map[string]string{}
		for _, pass := range w.allPlans() {
			res, err := pass(nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			for _, u := range res.units {
				if u.fail != "" {
					return fmt.Errorf("%s: unit %s (%s) fails: %s", w.name, u.name, u.key, u.fail)
				}
				if old, ok := got[u.key]; ok && old != u.digest {
					return fmt.Errorf("%s: unit key %s is ambiguous: digests %s and %s", w.name, u.key, old, u.digest)
				}
				got[u.key] = u.digest
			}
		}
		ref[w.name] = got
		fmt.Fprintf(os.Stderr, "%s: %d unit digests\n", w.name, len(got))
	}
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
