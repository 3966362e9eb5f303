// Package virtio implements paravirtual I/O: split virtqueues living in
// guest memory and the virtio-blk, virtio-net, virtio-console and
// virtio-balloon device models served over them.
//
// The design follows the virtio split-ring specification: a descriptor
// table, an available ring the guest produces into, and a used ring the
// device produces into. The guest batches work and issues a single doorbell
// MMIO write ("kick"); the device drains the available ring synchronously
// and signals completion through the interrupt controller. One exit per
// batch instead of one exit per register access is precisely the
// paravirtual advantage quantified in experiment T6.
package virtio

import (
	"encoding/binary"
	"fmt"

	"govisor/internal/isa"
	"govisor/internal/mem"
)

// Descriptor flags.
const (
	DescNext  uint16 = 1 // chain continues at Next
	DescWrite uint16 = 2 // device writes this buffer (guest reads it)
)

const descSize = 16

// Layout computes the memory addresses of a queue's three rings when packed
// contiguously at base: descriptor table, available ring, used ring. It
// returns the first address past the queue.
func Layout(base uint64, num uint16) (desc, avail, used, end uint64) {
	desc = base
	avail = desc + uint64(num)*descSize
	// avail: flags u16 + idx u16 + ring[num] u16, then align 8.
	used = (avail + 4 + 2*uint64(num) + 7) &^ 7
	// used: flags u16 + idx u16 + ring[num]{id u32, len u32}, align 8.
	end = (used + 4 + 8*uint64(num) + 7) &^ 7
	return desc, avail, used, end
}

// DescBuf is one resolved descriptor in a chain.
type DescBuf struct {
	Addr   uint64 // guest-physical buffer address
	Len    uint32
	Device bool // device-writable (DescWrite)
}

// Chain is one request: the head descriptor index plus resolved buffers.
type Chain struct {
	Head uint16
	Buf  []DescBuf
}

// ReadLen sums guest-readable buffer lengths.
func (c *Chain) ReadLen() (n uint32) {
	for _, b := range c.Buf {
		if !b.Device {
			n += b.Len
		}
	}
	return n
}

// WriteLen sums device-writable buffer lengths.
func (c *Chain) WriteLen() (n uint32) {
	for _, b := range c.Buf {
		if b.Device {
			n += b.Len
		}
	}
	return n
}

// Queue is the device-side view of one virtqueue.
type Queue struct {
	g     *mem.GuestPhys
	num   uint16
	desc  uint64
	avail uint64
	used  uint64
	ready bool

	lastAvail uint16

	// usedIdx is the device-owned shadow of the used-ring producer index.
	// The device never re-reads the index from guest memory: a guest (or a
	// corruption) scribbling used.idx would otherwise redirect completions
	// over arbitrary slots, and a read fault would return 0 and pin every
	// completion to slot 0. The shadow advances monotonically and is written
	// out on each Push.
	usedIdx uint16

	// Stats.
	Kicks, Chains, Malformed uint64
}

// Configure points the queue at guest memory. num must be a power of two.
func (q *Queue) Configure(g *mem.GuestPhys, num uint16, desc, avail, used uint64) error {
	if num == 0 || num&(num-1) != 0 {
		return fmt.Errorf("virtio: queue size %d not a power of two", num)
	}
	q.g = g
	q.num = num
	q.desc, q.avail, q.used = desc, avail, used
	q.ready = true
	q.lastAvail = 0
	q.usedIdx = 0
	return nil
}

// Ready reports whether the queue has been configured.
func (q *Queue) Ready() bool { return q.ready }

// Num returns the configured ring size.
func (q *Queue) Num() uint16 { return q.num }

func (q *Queue) read16(gpa uint64) uint16 {
	v, f := q.g.ReadUint(gpa, 2)
	if f != nil {
		return 0
	}
	return uint16(v)
}

// availIdx reads the guest's producer index.
func (q *Queue) availIdx() uint16 { return q.read16(q.avail + 2) }

// Pending reports whether unprocessed chains are available.
func (q *Queue) Pending() bool {
	return q.ready && q.availIdx() != q.lastAvail
}

// Pop fetches the next well-formed available chain, resolving its
// descriptors. Malformed chains — a descriptor-read fault, or a chain longer
// than the ring (a cycle, necessarily) — are completed immediately with
// written=0 and counted in Malformed, so the guest's descriptors return to
// the used ring instead of leaking until the ring wedges; Pop then moves on
// to the next pending chain.
func (q *Queue) Pop() (Chain, bool) {
	for q.Pending() {
		slot := uint64(q.lastAvail % q.num)
		head := q.read16(q.avail + 4 + 2*slot)
		q.lastAvail++
		if ch, ok := q.resolve(head); ok {
			q.Chains++
			return ch, true
		}
		q.Malformed++
		q.Push(head, 0)
	}
	return Chain{}, false
}

// resolve walks one descriptor chain from head. A chain may reference each
// of the ring's num descriptors at most once, so num hops is the longest
// well-formed walk; the num+1th hop proves a cycle.
func (q *Queue) resolve(head uint16) (Chain, bool) {
	ch := Chain{Head: head}
	idx := head
	for hops := 0; hops < int(q.num); hops++ {
		d := q.desc + uint64(idx%q.num)*descSize
		var raw [descSize]byte
		if f := q.g.ReadSpan(d, raw[:]); f != nil {
			return ch, false
		}
		addr := binary.LittleEndian.Uint64(raw[0:])
		length := binary.LittleEndian.Uint32(raw[8:])
		flags := binary.LittleEndian.Uint16(raw[12:])
		next := binary.LittleEndian.Uint16(raw[14:])
		ch.Buf = append(ch.Buf, DescBuf{Addr: addr, Len: length, Device: flags&DescWrite != 0})
		if flags&DescNext == 0 {
			return ch, true
		}
		idx = next
	}
	return ch, false
}

// Push records a completed chain in the used ring, advancing the
// device-owned shadow producer index (see usedIdx — guest memory is written,
// never read back).
func (q *Queue) Push(head uint16, written uint32) {
	slot := uint64(q.usedIdx % q.num)
	entry := q.used + 4 + 8*slot
	q.g.WriteUintPriv(entry, 4, uint64(head))
	q.g.WriteUintPriv(entry+4, 4, uint64(written))
	q.usedIdx++
	q.g.WriteUintPriv(q.used+2, 2, uint64(q.usedIdx))
}

// UsedIdx returns the device's producer index as the guest observes it.
func (q *Queue) UsedIdx() uint16 { return q.read16(q.used + 2) }

// ensure demand-populates the pages under a DMA target: device access to a
// lazily allocated guest buffer must behave like pinned DMA memory, not
// fault.
func (q *Queue) ensure(gpa uint64, n int) {
	if n <= 0 {
		return
	}
	for p := gpa >> isa.PageShift; p <= (gpa+uint64(n)-1)>>isa.PageShift; p++ {
		if err := q.g.Populate(p); err != nil {
			return // out of range or pool exhausted: the access will fault
		}
	}
}

// ReadFrom copies a descriptor buffer out of guest memory through the span
// memo: each page resolves once per epoch instead of once per access.
func (q *Queue) ReadFrom(b DescBuf, buf []byte) error {
	n := int(b.Len)
	if n > len(buf) {
		n = len(buf)
	}
	q.ensure(b.Addr, n)
	if f := q.g.ReadSpan(b.Addr, buf[:n]); f != nil {
		return f
	}
	return nil
}

// ReadAll copies a driver-readable descriptor's Len bytes out of guest
// memory into buf's storage, growing it only when it is too small, and
// returns the filled slice. A Len larger than guest RAM cannot lie inside
// RAM, so it is reported as the fault the copy would hit before any host
// memory is sized by the guest-controlled length: callers that reuse buf
// across descriptors allocate at most guest-RAM-size bytes.
func (q *Queue) ReadAll(d DescBuf, buf []byte) ([]byte, error) {
	if uint64(d.Len) > q.g.Size() {
		return buf[:0], &mem.Fault{Kind: mem.FaultBeyondRAM, GPA: d.Addr}
	}
	if cap(buf) < int(d.Len) {
		buf = make([]byte, d.Len)
	}
	buf = buf[:d.Len]
	return buf, q.ReadFrom(d, buf)
}

// WriteTo copies data into a device-writable buffer through the span memo.
func (q *Queue) WriteTo(b DescBuf, data []byte) error {
	n := len(data)
	if n > int(b.Len) {
		n = int(b.Len)
	}
	q.ensure(b.Addr, n)
	if f := q.g.WriteSpan(b.Addr, data[:n]); f != nil {
		return f
	}
	return nil
}
