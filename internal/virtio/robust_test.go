// Malformed-ring robustness suite: the device side of every queue must
// survive a corrupt or malicious guest — scribbled producer indices,
// descriptor loops, faulting buffer addresses, zero-length and
// wrongly-directed descriptors — without panicking, without trusting guest
// memory for device-owned state, and without leaking descriptors.
package virtio

import (
	"encoding/binary"
	"runtime"
	"testing"

	"govisor/internal/isa"
	"govisor/internal/mem"
	"govisor/internal/storage"
)

// qSetup arms a bare queue at a fixed layout and returns it with its rings'
// addresses.
func qSetup(t *testing.T, g *mem.GuestPhys, num uint16) (*Queue, uint64, uint64, uint64) {
	t.Helper()
	desc, avail, used, _ := Layout(0x1000, num)
	q := &Queue{}
	if err := q.Configure(g, num, desc, avail, used); err != nil {
		t.Fatal(err)
	}
	return q, desc, avail, used
}

// postChain publishes head on the avail ring (slot = current index).
func postChain(g *mem.GuestPhys, avail uint64, idx *uint16, head uint16, num uint16) {
	g.WriteUintPriv(avail+4+2*uint64(*idx%num), 2, uint64(head))
	*idx++
	g.WriteUintPriv(avail+2, 2, uint64(*idx))
}

// writeDesc writes one descriptor table entry.
func writeDesc(g *mem.GuestPhys, desc uint64, i uint16, addr uint64, length uint32, flags, next uint16) {
	d := desc + uint64(i)*descSize
	g.WriteUintPriv(d, 8, addr)
	g.WriteUintPriv(d+8, 4, uint64(length))
	g.WriteUintPriv(d+12, 2, uint64(flags))
	g.WriteUintPriv(d+14, 2, uint64(next))
}

// TestUsedIdxCorruptionIgnored is the regression test for the Push read-back
// bug: the used-ring producer index is device-owned, so a guest scribbling
// used.idx mid-stream must not redirect later completions. Before the fix
// the device re-read the index on every Push, so the corruption below sent
// the second completion to slot 0xEE%num and published idx 0xEF.
func TestUsedIdxCorruptionIgnored(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, used := qSetup(t, g, 8)
	var availIdx uint16
	writeDesc(g, desc, 0, 0x8000, 16, 0, 0)
	writeDesc(g, desc, 1, 0x8100, 16, 0, 0)
	postChain(g, avail, &availIdx, 0, 8)

	if ch, ok := q.Pop(); !ok {
		t.Fatal("pop 1")
	} else {
		q.Push(ch.Head, 0)
	}
	// Guest corrupts the producer index between completions.
	g.WriteUintPriv(used+2, 2, 0xEE)

	postChain(g, avail, &availIdx, 1, 8)
	if ch, ok := q.Pop(); !ok {
		t.Fatal("pop 2")
	} else {
		q.Push(ch.Head, 0)
	}
	if got := q.UsedIdx(); got != 2 {
		t.Fatalf("used idx = %d, want 2 (device must own the index)", got)
	}
	// The second completion sits in slot 1, where an uncorrupted stream
	// would put it.
	h, _ := g.ReadUint(used+4+8*1, 4)
	if uint16(h) != 1 {
		t.Fatalf("slot 1 head = %d, want 1", h)
	}
}

// TestUsedIdxFaultingRingNoSlotStomp: if the used ring sits on faulting
// memory the index read-back used to return 0 forever, stomping slot 0 with
// every completion. The shadow index keeps completions sequenced even though
// the writes themselves fault harmlessly.
func TestUsedIdxFaultingRingNoSlotStomp(t *testing.T) {
	g := newGuest(t, 64)
	q := &Queue{}
	desc, avail, _, _ := Layout(0x1000, 8)
	// Used ring beyond RAM: every device write to it faults (and is
	// discarded); the shadow must still advance.
	if err := q.Configure(g, 8, desc, avail, g.Size()+0x1000); err != nil {
		t.Fatal(err)
	}
	var availIdx uint16
	writeDesc(g, desc, 0, 0x8000, 16, 0, 0)
	writeDesc(g, desc, 1, 0x8100, 16, 0, 0)
	postChain(g, avail, &availIdx, 0, 8)
	postChain(g, avail, &availIdx, 1, 8)
	for i := 0; i < 2; i++ {
		ch, ok := q.Pop()
		if !ok {
			t.Fatalf("pop %d", i)
		}
		q.Push(ch.Head, 0)
	}
	if q.usedIdx != 2 {
		t.Fatalf("shadow used idx = %d, want 2", q.usedIdx)
	}
}

// TestTxFaultDropsFrame is the regression test for the processTX bug: a TX
// descriptor aimed beyond RAM used to transmit the zero-filled remainder of
// the frame. The frame must be dropped (counted in TxDropped), nothing may
// reach the link, and the chain still completes so the ring stays live.
func TestTxFaultDropsFrame(t *testing.T) {
	g := newGuest(t, 64)
	var sent [][]byte
	link := &pipeLink{}
	peer := &pipeLink{}
	link.peer, peer.peer = peer, link
	peer.rx = func(f []byte) { sent = append(sent, f) }

	n := NewNet(link)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, buf, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Faulting frame: descriptor points past the end of RAM.
	if _, err := drv.Submit([]DescBuf{{Addr: g.Size() + 0x1000, Len: NetHeaderSize + 64}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if len(sent) != 0 {
		t.Fatalf("faulting frame reached the link: %d", len(sent))
	}
	if n.TxDropped != 1 || n.TxFrames != 0 {
		t.Fatalf("dropped=%d tx=%d, want 1/0", n.TxDropped, n.TxFrames)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("dropped frame must still complete its chain")
	}
	// The ring is live: a good frame right after goes through.
	payload := make([]byte, NetHeaderSize+32)
	for i := range payload[NetHeaderSize:] {
		payload[NetHeaderSize+i] = byte(i)
	}
	g.Write(buf, payload)
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: uint32(len(payload))}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxFrames != 1 || len(sent) != 1 {
		t.Fatalf("follow-up frame lost: tx=%d sent=%d", n.TxFrames, len(sent))
	}
}

// TestTxOversizedChainDropped: a chain advertising a multi-gigabyte total
// must not size a host allocation; it drops and completes.
func TestTxOversizedChainDropped(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, _, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: 0x8000, Len: 0xF000_0000}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxDropped != 1 {
		t.Fatalf("TxDropped = %d", n.TxDropped)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("oversized chain must still complete")
	}
}

// TestMalformedChainsDontWedgeRing is the regression test for the Pop leak:
// malformed chains used to consume the available entry without ever pushing
// to the used ring, so a guest emitting them leaked descriptors until the
// ring wedged. Far more chains than the ring holds must flow through — each
// completing with written=0 — and a well-formed chain afterwards still works.
func TestMalformedChainsDontWedgeRing(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, _ := qSetup(t, g, 4)
	var availIdx uint16
	// Descriptor 2 chains to itself forever.
	writeDesc(g, desc, 2, 0x8000, 16, DescNext, 2)
	// 3 ring-sizes' worth of cyclic chains: with the leak, the 5th pop
	// would already have wedged (4 in flight, none completed).
	for i := 0; i < 12; i++ {
		postChain(g, avail, &availIdx, 2, 4)
		if _, ok := q.Pop(); ok {
			t.Fatalf("chain %d: cyclic chain popped as well-formed", i)
		}
	}
	if q.Malformed != 12 {
		t.Fatalf("Malformed = %d, want 12", q.Malformed)
	}
	if q.UsedIdx() != 12 {
		t.Fatalf("used idx = %d, want 12 (ring wedged)", q.UsedIdx())
	}
	// Ring still live for a well-formed chain.
	writeDesc(g, desc, 0, 0x9000, 32, 0, 0)
	postChain(g, avail, &availIdx, 0, 4)
	ch, ok := q.Pop()
	if !ok || ch.Head != 0 || len(ch.Buf) != 1 {
		t.Fatalf("well-formed chain after malformed storm: ok=%v head=%d", ok, ch.Head)
	}
	if q.Chains != 1 {
		t.Fatalf("Chains = %d, want 1", q.Chains)
	}
}

// TestChainLengthOffByOne: a chain may use each of the ring's num
// descriptors exactly once. Before the fix the walk admitted num+1 hops, so
// a full-length chain was indistinguishable from a cycle's first lap.
func TestChainLengthOffByOne(t *testing.T) {
	g := newGuest(t, 64)
	q, desc, avail, _ := qSetup(t, g, 4)
	var availIdx uint16
	// A well-formed maximal chain: 0→1→2→3.
	for i := uint16(0); i < 4; i++ {
		flags := uint16(0)
		if i < 3 {
			flags = DescNext
		}
		writeDesc(g, desc, i, 0x8000+uint64(i)*0x100, 16, flags, i+1)
	}
	postChain(g, avail, &availIdx, 0, 4)
	ch, ok := q.Pop()
	if !ok || len(ch.Buf) != 4 {
		t.Fatalf("maximal chain rejected: ok=%v len=%d", ok, len(ch.Buf))
	}
	// Now loop descriptor 3 back to 0: 5 hops means a revisit, and the old
	// `hops <= num` walk would have accepted num+1 buffers.
	writeDesc(g, desc, 3, 0x8300, 16, DescNext, 0)
	postChain(g, avail, &availIdx, 0, 4)
	if _, ok := q.Pop(); ok {
		t.Fatal("num+1-hop chain must be malformed")
	}
	if q.Malformed != 1 {
		t.Fatalf("Malformed = %d, want 1", q.Malformed)
	}
}

// TestCorruptAvailIdxStorm: the guest publishes a wildly wrong producer
// index. The device must chew through the phantom window — every phantom
// head resolves as a zero-descriptor chain and completes — without panic and
// without the used ring falling out of step with consumption.
func TestCorruptAvailIdxStorm(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	if _, err := d.SetupQueue(NetTXQueue, 0x1000, 8); err != nil {
		t.Fatal(err)
	}
	q := d.Queue(NetTXQueue)
	// avail.idx jumps to 5000 with nothing actually posted.
	avail := q.avail
	g.WriteUintPriv(avail+2, 2, 5000)
	d.MMIOWrite(RegNotify, 4, NetTXQueue)
	if q.lastAvail != 5000 {
		t.Fatalf("consumed %d chains, want 5000", q.lastAvail)
	}
	if q.usedIdx != 5000 {
		t.Fatalf("used idx = %d, want 5000 (every consumed chain completes)", q.usedIdx)
	}
	if !d.InterruptPending() {
		t.Fatal("completions must raise the interrupt even when all chains are phantom")
	}
}

// TestZeroLengthDescriptors: zero-length descriptors are legal (if useless);
// they must complete cleanly in both directions.
func TestZeroLengthDescriptors(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, _, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: 0x8000, Len: 0}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("zero-length chain must complete")
	}
	if n.TxFrames != 0 || n.TxDropped != 0 {
		t.Fatalf("zero-length chain counted as traffic: tx=%d dropped=%d", n.TxFrames, n.TxDropped)
	}
}

// TestTxDeviceWritableOnlyChain: a TX chain made solely of device-writable
// descriptors carries no readable bytes; it completes without transmitting.
func TestTxDeviceWritableOnlyChain(t *testing.T) {
	g := newGuest(t, 64)
	n := NewNet(nil)
	d := NewMMIODev("vnet", n, g, nil)
	n.Bind(d)
	drv, buf, err := NewDriver(g, d, NetTXQueue, 0x10000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: 2048, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if n.TxFrames != 0 {
		t.Fatalf("device-writable-only chain transmitted: %d", n.TxFrames)
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("chain must complete")
	}
}

// TestQueueEnsurePageArithmetic: ensure must use the machine's page
// constants. A DMA buffer spanning pages of an initially unpopulated space
// demand-populates every page it touches (lazy guest memory behaves like
// pinned DMA memory).
func TestQueueEnsurePageArithmetic(t *testing.T) {
	pool := mem.NewPool(64)
	g := mem.NewGuestPhys(pool, 16<<isa.PageShift) // nothing populated
	q, desc, avail, _ := qSetup(t, g, 8)
	_ = desc
	_ = avail
	// A device write spanning three pages, unaligned start.
	start := uint64(2<<isa.PageShift) - 100
	data := make([]byte, 2*isa.PageSize+200)
	for i := range data {
		data[i] = byte(i)
	}
	if err := q.WriteTo(DescBuf{Addr: start, Len: uint32(len(data)), Device: true}, data); err != nil {
		t.Fatal(err)
	}
	for gfn := uint64(1); gfn <= 4; gfn++ {
		if g.Frame(gfn) == mem.NoFrame {
			t.Fatalf("page %d not populated by DMA ensure", gfn)
		}
	}
	got := make([]byte, len(data))
	if f := g.Read(start, got); f != nil {
		t.Fatal(f)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// TestBlkStatusFaultNotReported is the regression test for virtio-blk
// dropping status-byte write faults: with the status descriptor aimed past
// the end of RAM the device used to count nothing and still report the
// status byte in the used length, as if the guest could read it. Every
// completion path — success, unsupported type, and a malformed header —
// must now count the error and leave the byte out of the used length.
func TestBlkStatusFaultNotReported(t *testing.T) {
	cases := []struct {
		name    string
		reqType uint32
		hdrLen  uint32
		data    *DescBuf
		wantLen uint32
	}{
		{"write", BlkTOut, BlkHeaderSize, &DescBuf{Len: SectorSize}, 0},
		{"read", BlkTIn, BlkHeaderSize, &DescBuf{Len: SectorSize, Device: true}, SectorSize},
		{"unsupported", 99, BlkHeaderSize, nil, 0},
		{"short-header", BlkTOut, BlkHeaderSize - 1, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, blk, _, drv, bufBase := blkSetup(t, storage.NewRaw(16))
			var hdr [BlkHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:], tc.reqType)
			g.Write(bufBase, hdr[:])
			chain := []DescBuf{{Addr: bufBase, Len: tc.hdrLen}}
			if tc.data != nil {
				d := *tc.data
				d.Addr = bufBase + 0x100
				chain = append(chain, d)
			}
			chain = append(chain, DescBuf{Addr: g.Size() + 0x1000, Len: 1, Device: true})
			if _, err := drv.Submit(chain); err != nil {
				t.Fatal(err)
			}
			drv.Kick()
			_, written, ok := drv.PollUsed()
			if !ok {
				t.Fatal("request must still complete its chain")
			}
			if written != tc.wantLen {
				t.Fatalf("used length %d, want %d: the faulted status byte was reported as written", written, tc.wantLen)
			}
			if blk.Errors != 1 {
				t.Fatalf("errors = %d, want 1", blk.Errors)
			}
		})
	}
}

// TestConsoleRxFaultKeepsInput is the regression test for virtio-console
// consuming input that never reached the guest: an RX buffer past the end
// of RAM used to swallow the pending bytes and report them delivered. The
// faulting chain must complete empty, and the input must stay queued for
// the next good buffer.
func TestConsoleRxFaultKeepsInput(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)
	drv, buf, err := NewDriver(g, d, ConsoleRXQueue, 0xC000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: g.Size() + 0x1000, Len: 64, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	con.Feed([]byte("hi"))
	if _, written, ok := drv.PollUsed(); !ok || written != 0 {
		t.Fatalf("faulting rx buffer: written=%d ok=%v, want 0/true", written, ok)
	}
	if con.RxBytes != 0 {
		t.Fatalf("RxBytes = %d for input that never reached the guest", con.RxBytes)
	}
	// A good buffer posted next receives the input the fault left queued.
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: 64, Device: true}}); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	_, written, ok := drv.PollUsed()
	if !ok || written != 2 {
		t.Fatalf("rx written = %d ok=%v, want 2", written, ok)
	}
	got := make([]byte, 2)
	g.Read(buf, got)
	if string(got) != "hi" || con.RxBytes != 2 {
		t.Fatalf("rx = %q RxBytes = %d, want \"hi\"/2", got, con.RxBytes)
	}
}

// TestConsoleTxFaultStopsChain is the regression test for virtio-console
// emitting bytes the guest never wrote: a TX buffer outside guest RAM used
// to append Len zero bytes to the output and count them in TxBytes, and the
// rest of the chain still went out. The chain must stop at the first
// faulting buffer, with nothing emitted or counted from it on, and still
// complete.
func TestConsoleTxFaultStopsChain(t *testing.T) {
	g := newGuest(t, 64)
	con := NewConsole()
	d := NewMMIODev("vcon", con, g, nil)
	con.Bind(d)
	drv, buf, err := NewDriver(g, d, ConsoleTXQueue, 0xC000, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.Write(buf, []byte("ab"))
	g.Write(buf+0x100, []byte("cd"))
	chain := []DescBuf{
		{Addr: buf, Len: 2},
		{Addr: g.Size() + 0x1000, Len: 16}, // beyond RAM
		{Addr: buf + 0x100, Len: 2},
	}
	if _, err := drv.Submit(chain); err != nil {
		t.Fatal(err)
	}
	drv.Kick()
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("faulting tx chain was not completed")
	}
	if got := con.Output(); got != "ab" || con.TxBytes != 2 {
		t.Fatalf("output %q TxBytes %d, want \"ab\"/2: the chain must stop at the faulting buffer",
			got, con.TxBytes)
	}
}

// TestBalloonHugeDescriptorBoundedAlloc is the regression test for
// virtio-balloon sizing a host allocation by the guest-controlled
// descriptor length: a 256 MiB inflate array in a 256 KiB guest used to
// allocate 256 MiB before the copy faulted. It must fault without
// allocating anything near that and reclaim nothing.
func TestBalloonHugeDescriptorBoundedAlloc(t *testing.T) {
	g := newGuest(t, 64)
	ops := &fakeBalloonOps{}
	bal := NewBalloon(ops)
	d := NewMMIODev("vballoon", bal, g, nil)
	bal.Bind(d)
	drv, buf, err := NewDriver(g, d, BalloonInflateQueue, 0x8000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Submit([]DescBuf{{Addr: buf, Len: 256 << 20}}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drv.Kick()
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 16<<20 {
		t.Fatalf("a 256 MiB descriptor allocated %d bytes on the host", delta)
	}
	if len(ops.reclaimed) != 0 || bal.Actual() != 0 {
		t.Fatalf("faulting inflate array reclaimed %d pages (actual %d)", len(ops.reclaimed), bal.Actual())
	}
	if _, _, ok := drv.PollUsed(); !ok {
		t.Fatal("faulting inflate chain was not completed")
	}
}
