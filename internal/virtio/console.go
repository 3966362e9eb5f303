package virtio

import "bytes"

// Virtio-console queue indices.
const (
	ConsoleRXQueue = 0
	ConsoleTXQueue = 1
)

// Console is the paravirtual console: byte streams over two queues. The
// host side accumulates guest output and feeds input.
type Console struct {
	dev *MMIODev
	out bytes.Buffer
	in  []byte

	TxBytes, RxBytes uint64
}

// NewConsole creates the model.
func NewConsole() *Console { return &Console{} }

// Bind attaches the transport.
func (c *Console) Bind(dev *MMIODev) { c.dev = dev }

// DeviceID implements Backend.
func (c *Console) DeviceID() uint32 { return IDConsole }

// NumQueues implements Backend.
func (c *Console) NumQueues() int { return 2 }

// ReadConfig implements Backend.
func (c *Console) ReadConfig(off uint64, size int) uint64 { return 0 }

// Process implements Backend.
func (c *Console) Process(q *Queue, qi int) {
	switch qi {
	case ConsoleTXQueue:
		completed := false
		var buf []byte
		for {
			ch, ok := q.Pop()
			if !ok {
				break
			}
			for _, d := range ch.Buf {
				if d.Device {
					continue
				}
				var err error
				if buf, err = q.ReadAll(d, buf); err != nil {
					break // the buffer faulted: nothing from it on is emitted
				}
				c.out.Write(buf)
				c.TxBytes += uint64(len(buf))
			}
			q.Push(ch.Head, 0)
			completed = true
		}
		if completed && c.dev != nil {
			c.dev.SignalUsed()
		}
	case ConsoleRXQueue:
		c.flushInput()
	}
}

// Feed queues host→guest input bytes and delivers into posted RX buffers.
func (c *Console) Feed(data []byte) {
	c.in = append(c.in, data...)
	c.flushInput()
}

func (c *Console) flushInput() {
	if c.dev == nil || len(c.in) == 0 {
		return
	}
	q := c.dev.Queue(ConsoleRXQueue)
	if q == nil || !q.Ready() {
		return
	}
	delivered := false
	for len(c.in) > 0 {
		ch, ok := q.Pop()
		if !ok {
			break
		}
		written := uint32(0)
		for _, d := range ch.Buf {
			if !d.Device || len(c.in) == 0 {
				continue
			}
			n := int(d.Len)
			if n > len(c.in) {
				n = len(c.in)
			}
			if q.WriteTo(d, c.in[:n]) != nil {
				break // the buffer faulted: its input stays queued
			}
			c.in = c.in[n:]
			written += uint32(n)
			c.RxBytes += uint64(n)
		}
		q.Push(ch.Head, written)
		delivered = true
	}
	if delivered {
		c.dev.SignalUsed()
	}
}

// Output returns everything the guest has written.
func (c *Console) Output() string { return c.out.String() }
