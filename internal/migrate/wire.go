package migrate

// The migration wire format. Every message is a frame:
//
//	u32 magic | u8 type | u8 flags | u16 reserved | u64 seq | u32 payloadLen
//	payload…
//	u32 CRC32-IEEE over header+payload
//
// Sequence numbers are per-connection per-direction and must increase by
// exactly one; the CRC catches in-flight corruption (faultnet's bit flips
// land here). Page content travels as runs — contiguous gfn ranges sharing
// zero-ness — so all-zero pages cost 13 bytes instead of a page on the
// physical wire while the simulated cost model still charges the logical
// pageWireSize per page, so a report never depends on how frames were
// encoded.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"govisor/internal/core"
	"govisor/internal/gabi"
	"govisor/internal/isa"
)

const (
	frameMagic   = 0x4D475631 // "MGV1"
	headerSize   = 20
	trailerSize  = 4       // CRC32
	maxPayload   = 2 << 20 // decode-side allocation cap
	maxRunPages  = 1 << 20 // sanity cap on one run's page count
	framePageCap = 128     // data pages per ftPages frame
	archWireLen  = 32*8 + 8 + 8 + 8 + 8 + 10*8 + gabi.ParamSlots*8 + 8
)

// frameType tags one wire message.
type frameType uint8

const (
	ftHello     frameType = iota + 1 // src→dst: open/resume a session
	ftWelcome                        // dst→src: acked rounds + commit flag
	ftPages                          // src→dst: page runs
	ftRoundEnd                       // src→dst: round boundary
	ftRoundAck                       // dst→src: round durably applied
	ftArch                           // src→dst: architectural CPU state
	ftCommit                         // src→dst: switchover
	ftCommitAck                      // dst→src: destination adopted
	ftPull                           // dst→src: post-copy demand pull
	ftPage                           // src→dst: one pulled page
	ftPullChunk                      // dst→src: request a background push chunk
	ftChunkDone                      // src→dst: chunk complete (+pushed count)
)

// String names the frame type.
func (t frameType) String() string {
	switch t {
	case ftHello:
		return "hello"
	case ftWelcome:
		return "welcome"
	case ftPages:
		return "pages"
	case ftRoundEnd:
		return "round-end"
	case ftRoundAck:
		return "round-ack"
	case ftArch:
		return "arch"
	case ftCommit:
		return "commit"
	case ftCommitAck:
		return "commit-ack"
	case ftPull:
		return "pull"
	case ftPage:
		return "page"
	case ftPullChunk:
		return "pull-chunk"
	case ftChunkDone:
		return "chunk-done"
	}
	return fmt.Sprintf("frame?%d", uint8(t))
}

// wireConn frames an io.ReadWriteCloser with sequencing, CRCs, and
// physical byte accounting.
type wireConn struct {
	rw    io.ReadWriteCloser
	rseq  uint64
	wseq  uint64
	moved uint64 // physical bytes in both directions
}

func newWireConn(rw io.ReadWriteCloser) *wireConn { return &wireConn{rw: rw} }

func (w *wireConn) Close() error { return w.rw.Close() }

// writeFrame sends one frame.
func (w *wireConn) writeFrame(t frameType, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("migrate: frame %v payload %d exceeds cap", t, len(payload))
	}
	buf := make([]byte, headerSize+len(payload)+trailerSize)
	binary.LittleEndian.PutUint32(buf[0:], frameMagic)
	buf[4] = byte(t)
	binary.LittleEndian.PutUint64(buf[8:], w.wseq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(payload)))
	copy(buf[headerSize:], payload)
	crc := crc32.ChecksumIEEE(buf[:headerSize+len(payload)])
	binary.LittleEndian.PutUint32(buf[headerSize+len(payload):], crc)
	if _, err := w.rw.Write(buf); err != nil {
		return fmt.Errorf("migrate: writing %v frame: %w", t, err)
	}
	w.wseq++
	w.moved += uint64(len(buf))
	return nil
}

// readFrame receives and validates one frame.
func (w *wireConn) readFrame() (frameType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(w.rw, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("migrate: reading frame header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != frameMagic {
		return 0, nil, fmt.Errorf("migrate: bad frame magic %#x", got)
	}
	t := frameType(hdr[4])
	seq := binary.LittleEndian.Uint64(hdr[8:])
	plen := binary.LittleEndian.Uint32(hdr[16:])
	if plen > maxPayload {
		return 0, nil, fmt.Errorf("migrate: frame %v payload %d exceeds cap", t, plen)
	}
	rest := make([]byte, int(plen)+trailerSize)
	if _, err := io.ReadFull(w.rw, rest); err != nil {
		return 0, nil, fmt.Errorf("migrate: reading %v payload: %w", t, err)
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, rest[:plen])
	if got := binary.LittleEndian.Uint32(rest[plen:]); got != crc {
		return 0, nil, fmt.Errorf("migrate: frame %v CRC mismatch (seq %d)", t, seq)
	}
	if seq != w.rseq {
		return 0, nil, fmt.Errorf("migrate: frame %v out of sequence: got %d want %d", t, seq, w.rseq)
	}
	w.rseq++
	w.moved += uint64(headerSize + len(rest))
	return t, rest[:plen:plen], nil
}

// expectFrame reads one frame and requires the given type.
func (w *wireConn) expectFrame(t frameType) ([]byte, error) {
	got, p, err := w.readFrame()
	if err != nil {
		return nil, err
	}
	if got != t {
		return nil, fmt.Errorf("migrate: expected %v frame, got %v", t, got)
	}
	return p, nil
}

// ---- payload codecs ------------------------------------------------------

type helloMsg struct {
	NPages uint64
	Mode   Mode
	Pull   bool // a redialed post-commit pull connection
}

func encodeHello(m helloMsg) []byte {
	b := make([]byte, 10)
	binary.LittleEndian.PutUint64(b, m.NPages)
	b[8] = byte(m.Mode)
	if m.Pull {
		b[9] = 1
	}
	return b
}

func decodeHello(p []byte) (helloMsg, error) {
	if len(p) != 10 {
		return helloMsg{}, fmt.Errorf("migrate: hello payload %d bytes", len(p))
	}
	m := helloMsg{
		NPages: binary.LittleEndian.Uint64(p),
		Mode:   Mode(p[8]),
		Pull:   p[9] != 0,
	}
	if m.Mode > PostCopy {
		return helloMsg{}, fmt.Errorf("migrate: hello names unknown mode %d", p[8])
	}
	return m, nil
}

type welcomeMsg struct {
	AckedRounds uint64
	Committed   bool
}

func encodeWelcome(m welcomeMsg) []byte {
	b := make([]byte, 9)
	binary.LittleEndian.PutUint64(b, m.AckedRounds)
	if m.Committed {
		b[8] = 1
	}
	return b
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	if len(p) != 9 {
		return welcomeMsg{}, fmt.Errorf("migrate: welcome payload %d bytes", len(p))
	}
	return welcomeMsg{
		AckedRounds: binary.LittleEndian.Uint64(p),
		Committed:   p[8] != 0,
	}, nil
}

func encodeU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func decodeU64(p []byte, what string) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("migrate: %s payload %d bytes", what, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// pageRun is one contiguous gfn range sharing zero-ness. Data holds
// Count*PageSize bytes for non-zero runs and is empty for zero runs.
type pageRun struct {
	Start uint64
	Count uint32
	Zero  bool
	Data  []byte
}

// encodeRuns packs runs into one ftPages payload.
func encodeRuns(runs []pageRun) []byte {
	size := 0
	for _, r := range runs {
		size += 13 + len(r.Data)
	}
	b := make([]byte, 0, size)
	for _, r := range runs {
		var hdr [13]byte
		binary.LittleEndian.PutUint64(hdr[0:], r.Start)
		binary.LittleEndian.PutUint32(hdr[8:], r.Count)
		if r.Zero {
			hdr[12] = 1
		}
		b = append(b, hdr[:]...)
		b = append(b, r.Data...)
	}
	return b
}

// decodeRuns unpacks an ftPages payload. It validates structure only; gfn
// bounds are the applier's job.
func decodeRuns(p []byte) ([]pageRun, error) {
	var runs []pageRun
	for len(p) > 0 {
		if len(p) < 13 {
			return nil, fmt.Errorf("migrate: truncated page-run header (%d bytes)", len(p))
		}
		r := pageRun{
			Start: binary.LittleEndian.Uint64(p[0:]),
			Count: binary.LittleEndian.Uint32(p[8:]),
			Zero:  p[12] != 0,
		}
		if p[12] > 1 {
			return nil, fmt.Errorf("migrate: page-run flag byte %d", p[12])
		}
		if r.Count == 0 || r.Count > maxRunPages {
			return nil, fmt.Errorf("migrate: page-run count %d", r.Count)
		}
		if r.Start+uint64(r.Count) < r.Start {
			return nil, fmt.Errorf("migrate: page-run wraps gfn space")
		}
		p = p[13:]
		if !r.Zero {
			need := int(r.Count) * isa.PageSize
			if need/isa.PageSize != int(r.Count) || len(p) < need {
				return nil, fmt.Errorf("migrate: page-run data truncated (%d of %d·%d)", len(p), r.Count, isa.PageSize)
			}
			r.Data = p[:need:need]
			p = p[need:]
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// buildRuns groups a sorted gfn list into page runs, reading content from
// read (which fills a PageSize buffer for a gfn). Zero pages batch into
// data-less runs.
func buildRuns(gfns []uint64, read func(gfn uint64, buf []byte)) []pageRun {
	var runs []pageRun
	buf := make([]byte, isa.PageSize)
	for _, gfn := range gfns {
		read(gfn, buf)
		zero := isZeroPage(buf)
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if last.Zero == zero && last.Start+uint64(last.Count) == gfn &&
				(zero || last.Count < framePageCap) && last.Count < maxRunPages {
				last.Count++
				if !zero {
					last.Data = append(last.Data, buf...)
				}
				continue
			}
		}
		r := pageRun{Start: gfn, Count: 1, Zero: zero}
		if !zero {
			r.Data = append([]byte(nil), buf...)
		}
		runs = append(runs, r)
	}
	return runs
}

// isZeroPage reports whether a page buffer is all zero.
func isZeroPage(b []byte) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	for i := len(b) &^ 7; i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// encodeArch serializes an architectural snapshot.
func encodeArch(a core.ArchState) []byte {
	b := make([]byte, archWireLen)
	o := 0
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[o:], v)
		o += 8
	}
	for _, x := range a.X {
		put(x)
	}
	put(a.PC)
	put(uint64(a.Priv))
	put(a.Cycles)
	put(a.Instret)
	c := a.CSR
	for _, v := range []uint64{c.Sstatus, c.Sie, c.Stvec, c.Sscratch, c.Sepc, c.Scause, c.Stval, c.Sip, c.Stimecmp, c.Satp} {
		put(v)
	}
	for _, v := range a.Params {
		put(v)
	}
	put(uint64(a.HaltCode))
	return b
}

// decodeArch parses an architectural snapshot.
func decodeArch(p []byte) (core.ArchState, error) {
	var a core.ArchState
	if len(p) != archWireLen {
		return a, fmt.Errorf("migrate: arch payload %d bytes, want %d", len(p), archWireLen)
	}
	o := 0
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(p[o:])
		o += 8
		return v
	}
	for i := range a.X {
		a.X[i] = get()
	}
	a.PC = get()
	priv := get()
	if priv > 3 {
		return a, fmt.Errorf("migrate: arch privilege %d out of range", priv)
	}
	a.Priv = uint8(priv)
	a.Cycles = get()
	a.Instret = get()
	c := &a.CSR
	for _, dst := range []*uint64{&c.Sstatus, &c.Sie, &c.Stvec, &c.Sscratch, &c.Sepc, &c.Scause, &c.Stval, &c.Sip, &c.Stimecmp, &c.Satp} {
		*dst = get()
	}
	for i := range a.Params {
		a.Params[i] = get()
	}
	hc := get()
	if hc > 0xFFFF {
		return a, fmt.Errorf("migrate: arch halt code %d out of range", hc)
	}
	a.HaltCode = uint16(hc)
	return a, nil
}

type commitMsg struct {
	Downtime uint64
	Mode     Mode
	Present  []byte // post-copy: bitmap of source-present gfns
}

func encodeCommit(m commitMsg) []byte {
	b := make([]byte, 10+len(m.Present))
	binary.LittleEndian.PutUint64(b, m.Downtime)
	b[8] = byte(m.Mode)
	if len(m.Present) > 0 {
		b[9] = 1
	}
	copy(b[10:], m.Present)
	return b
}

func decodeCommit(p []byte, npages uint64) (commitMsg, error) {
	if len(p) < 10 {
		return commitMsg{}, fmt.Errorf("migrate: commit payload %d bytes", len(p))
	}
	m := commitMsg{
		Downtime: binary.LittleEndian.Uint64(p),
		Mode:     Mode(p[8]),
	}
	if m.Mode > PostCopy {
		return commitMsg{}, fmt.Errorf("migrate: commit names unknown mode %d", p[8])
	}
	switch p[9] {
	case 0:
		if len(p) != 10 {
			return commitMsg{}, fmt.Errorf("migrate: commit trailing bytes")
		}
	case 1:
		want := int((npages + 7) / 8)
		if len(p) != 10+want {
			return commitMsg{}, fmt.Errorf("migrate: commit bitmap %d bytes, want %d", len(p)-10, want)
		}
		m.Present = p[10 : 10+want : 10+want]
	default:
		return commitMsg{}, fmt.Errorf("migrate: commit bitmap flag %d", p[9])
	}
	return m, nil
}

type pageMsg struct {
	GFN  uint64
	Zero bool
	Have bool // false: source does not hold this page
	Data []byte
}

func encodePage(m pageMsg) []byte {
	var flags byte
	if m.Zero {
		flags |= 1
	}
	if m.Have {
		flags |= 2
	}
	b := make([]byte, 9+len(m.Data))
	binary.LittleEndian.PutUint64(b, m.GFN)
	b[8] = flags
	copy(b[9:], m.Data)
	return b
}

func decodePage(p []byte) (pageMsg, error) {
	if len(p) < 9 {
		return pageMsg{}, fmt.Errorf("migrate: page payload %d bytes", len(p))
	}
	if p[8] > 3 {
		return pageMsg{}, fmt.Errorf("migrate: page flag byte %d", p[8])
	}
	m := pageMsg{
		GFN:  binary.LittleEndian.Uint64(p),
		Zero: p[8]&1 != 0,
		Have: p[8]&2 != 0,
	}
	wantData := m.Have && !m.Zero
	switch {
	case wantData && len(p) != 9+isa.PageSize:
		return pageMsg{}, fmt.Errorf("migrate: page data %d bytes", len(p)-9)
	case !wantData && len(p) != 9:
		return pageMsg{}, fmt.Errorf("migrate: page trailing bytes")
	}
	if wantData {
		m.Data = p[9 : 9+isa.PageSize : 9+isa.PageSize]
	}
	return m, nil
}

type chunkDoneMsg struct {
	Pushed uint32 // pages actually pushed this chunk (logical wire cost)
	Done   bool   // background push schedule exhausted
}

func encodeChunkDone(m chunkDoneMsg) []byte {
	b := make([]byte, 5)
	binary.LittleEndian.PutUint32(b, m.Pushed)
	if m.Done {
		b[4] = 1
	}
	return b
}

func decodeChunkDone(p []byte) (chunkDoneMsg, error) {
	if len(p) != 5 || p[4] > 1 {
		return chunkDoneMsg{}, fmt.Errorf("migrate: chunk-done payload malformed (%d bytes)", len(p))
	}
	return chunkDoneMsg{Pushed: binary.LittleEndian.Uint32(p), Done: p[4] != 0}, nil
}

type roundEndMsg struct {
	Round uint64
	Pages uint64
}

func encodeRoundEnd(m roundEndMsg) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, m.Round)
	binary.LittleEndian.PutUint64(b[8:], m.Pages)
	return b
}

func decodeRoundEnd(p []byte) (roundEndMsg, error) {
	if len(p) != 16 {
		return roundEndMsg{}, fmt.Errorf("migrate: round-end payload %d bytes", len(p))
	}
	return roundEndMsg{
		Round: binary.LittleEndian.Uint64(p),
		Pages: binary.LittleEndian.Uint64(p[8:]),
	}, nil
}

// bitmap helpers (plain []byte bitmaps keep iteration order deterministic,
// unlike map sets — detorder bans order-sensitive map ranging).

func bitmapSet(b []byte, i uint64)      { b[i>>3] |= 1 << (i & 7) }
func bitmapGet(b []byte, i uint64) bool { return i>>3 < uint64(len(b)) && b[i>>3]&(1<<(i&7)) != 0 }
func newBitmap(n uint64) []byte         { return make([]byte, (n+7)/8) }
