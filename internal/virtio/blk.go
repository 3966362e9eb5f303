package virtio

import "encoding/binary"

// Virtio-blk request types.
const (
	BlkTIn    = 0 // read from disk into guest buffers
	BlkTOut   = 1 // write guest buffers to disk
	BlkTFlush = 4
)

// Virtio-blk status byte values.
const (
	BlkSOK     = 0
	BlkSIOErr  = 1
	BlkSUnsupp = 2
)

// BlkHeaderSize is the request header: type u32, reserved u32, sector u64.
const BlkHeaderSize = 16

// SectorSize mirrors the machine-wide sector size.
const SectorSize = 512

// BlockBackend matches dev.BlockBackend structurally.
type BlockBackend interface {
	ReadSector(lba uint64, buf []byte) error
	WriteSector(lba uint64, buf []byte) error
	Sectors() uint64
}

// Blk is the virtio-blk device model: one request queue carrying
// header / data... / status descriptor chains.
type Blk struct {
	img BlockBackend
	dev *MMIODev

	// Stats.
	Requests, SectorsRead, SectorsWritten, Errors uint64
}

// NewBlk creates the model; call Attach to get its MMIO transport.
func NewBlk(img BlockBackend) *Blk { return &Blk{img: img} }

// Bind attaches the transport (done by core when wiring the machine).
func (b *Blk) Bind(dev *MMIODev) { b.dev = dev }

// DeviceID implements Backend.
func (b *Blk) DeviceID() uint32 { return IDBlock }

// NumQueues implements Backend.
func (b *Blk) NumQueues() int { return 1 }

// ReadConfig implements Backend: config space is the capacity in sectors.
func (b *Blk) ReadConfig(off uint64, size int) uint64 {
	if off == 0 {
		return b.img.Sectors()
	}
	return 0
}

// Process implements Backend: drain the request queue.
func (b *Blk) Process(q *Queue, qi int) {
	completed := false
	for {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		written := b.handle(q, ch)
		q.Push(ch.Head, written)
		completed = true
	}
	if completed && b.dev != nil {
		b.dev.SignalUsed()
	}
}

// handle executes one request chain and returns the device-written byte
// count (data read + status byte).
func (b *Blk) handle(q *Queue, ch Chain) uint32 {
	b.Requests++
	if len(ch.Buf) < 2 || ch.Buf[0].Device || ch.Buf[0].Len < BlkHeaderSize {
		return b.fail(q, ch)
	}
	var hdr [BlkHeaderSize]byte
	if err := q.ReadFrom(ch.Buf[0], hdr[:]); err != nil {
		return b.fail(q, ch)
	}
	reqType := binary.LittleEndian.Uint32(hdr[0:])
	sector := binary.LittleEndian.Uint64(hdr[8:])
	status := ch.Buf[len(ch.Buf)-1]
	if !status.Device || status.Len < 1 {
		b.Errors++
		return 0
	}
	data := ch.Buf[1 : len(ch.Buf)-1]

	var written uint32
	ok := true
	switch reqType {
	case BlkTIn:
		for _, d := range data {
			if !d.Device || d.Len%SectorSize != 0 {
				ok = false
				break
			}
			buf := make([]byte, d.Len)
			for s := uint32(0); s < d.Len/SectorSize; s++ {
				if err := b.img.ReadSector(sector, buf[s*SectorSize:(s+1)*SectorSize]); err != nil {
					ok = false
					break
				}
				sector++
				b.SectorsRead++
			}
			if !ok {
				break
			}
			if err := q.WriteTo(d, buf); err != nil {
				ok = false
				break
			}
			written += d.Len
		}
	case BlkTOut:
		for _, d := range data {
			if d.Device || d.Len%SectorSize != 0 {
				ok = false
				break
			}
			buf := make([]byte, d.Len)
			if err := q.ReadFrom(d, buf); err != nil {
				ok = false
				break
			}
			for s := uint32(0); s < d.Len/SectorSize; s++ {
				if err := b.img.WriteSector(sector, buf[s*SectorSize:(s+1)*SectorSize]); err != nil {
					ok = false
					break
				}
				sector++
				b.SectorsWritten++
			}
			if !ok {
				break
			}
		}
	case BlkTFlush:
		// In-memory images are always durable.
	default:
		return b.complete(q, status, BlkSUnsupp, written)
	}
	code := byte(BlkSOK)
	if !ok {
		code = BlkSIOErr
	}
	return b.complete(q, status, code, written)
}

// complete writes the status byte and returns the chain's used length. A
// status write that faults never reached the guest: the byte stays out of
// the used length and the request counts as an error.
func (b *Blk) complete(q *Queue, status DescBuf, code byte, written uint32) uint32 {
	if err := q.WriteTo(status, []byte{code}); err != nil {
		b.Errors++
		return written
	}
	if code == BlkSIOErr {
		b.Errors++
	}
	return written + 1
}

func (b *Blk) fail(q *Queue, ch Chain) uint32 {
	b.Errors++
	if len(ch.Buf) > 0 {
		last := ch.Buf[len(ch.Buf)-1]
		if last.Device && last.Len >= 1 && q.WriteTo(last, []byte{BlkSIOErr}) == nil {
			return 1
		}
	}
	return 0
}
