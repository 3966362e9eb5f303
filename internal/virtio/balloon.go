package virtio

import "encoding/binary"

// Virtio-balloon queue indices.
const (
	BalloonInflateQueue = 0 // guest → host: these pages are now free, reclaim them
	BalloonDeflateQueue = 1 // guest → host: give these pages back
)

// BalloonOps is the host memory-management hook the balloon drives;
// implemented by the VMM over mem.GuestPhys.
type BalloonOps interface {
	// ReclaimPage releases the host frame behind gfn.
	ReclaimPage(gfn uint64)
	// ReturnPage re-establishes gfn (zero-filled on next touch).
	ReturnPage(gfn uint64)
}

// Balloon is the virtio-balloon device: the guest leases pages to the host
// by posting arrays of little-endian u64 guest frame numbers on the inflate
// queue, and reclaims them via the deflate queue. The config space carries
// the host's requested target so the guest driver knows how much to give.
type Balloon struct {
	ops BalloonOps
	dev *MMIODev

	targetPages uint64 // host-requested balloon size
	actualPages uint64 // currently leased

	Inflations, Deflations uint64
}

// NewBalloon creates the model.
func NewBalloon(ops BalloonOps) *Balloon { return &Balloon{ops: ops} }

// Bind attaches the transport.
func (b *Balloon) Bind(dev *MMIODev) { b.dev = dev }

// DeviceID implements Backend.
func (b *Balloon) DeviceID() uint32 { return IDBalloon }

// NumQueues implements Backend.
func (b *Balloon) NumQueues() int { return 2 }

// ReadConfig implements Backend: offset 0 = target pages, 8 = actual pages.
func (b *Balloon) ReadConfig(off uint64, size int) uint64 {
	switch off {
	case 0:
		return b.targetPages
	case 8:
		return b.actualPages
	}
	return 0
}

// SetTarget sets the host's requested balloon size in pages; the guest polls
// config space (or reacts to the config interrupt) and inflates/deflates.
func (b *Balloon) SetTarget(pages uint64) {
	b.targetPages = pages
	if b.dev != nil {
		b.dev.SignalUsed() // config-change notification
	}
}

// Target returns the current host request.
func (b *Balloon) Target() uint64 { return b.targetPages }

// Actual returns the number of pages currently leased to the host.
func (b *Balloon) Actual() uint64 { return b.actualPages }

// Process implements Backend.
func (b *Balloon) Process(q *Queue, qi int) {
	completed := false
	var buf []byte
	for {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		for _, d := range ch.Buf {
			if d.Device || d.Len%8 != 0 {
				continue
			}
			var err error
			if buf, err = q.ReadAll(d, buf); err != nil {
				continue // a faulting array leases or returns nothing
			}
			for off := 0; off+8 <= len(buf); off += 8 {
				gfn := binary.LittleEndian.Uint64(buf[off:])
				switch qi {
				case BalloonInflateQueue:
					b.ops.ReclaimPage(gfn)
					b.actualPages++
					b.Inflations++
				case BalloonDeflateQueue:
					b.ops.ReturnPage(gfn)
					if b.actualPages > 0 {
						b.actualPages--
					}
					b.Deflations++
				}
			}
		}
		q.Push(ch.Head, 0)
		completed = true
	}
	if completed && b.dev != nil {
		b.dev.SignalUsed()
	}
}
