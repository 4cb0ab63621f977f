package transport

// Wire framing for stream transports. Every frame is:
//
//	offset  size  field
//	0       2     magic "MB"
//	2       1     version (currently 4)
//	3       1     flags (bit 0: priority lane, bit 1: control frame)
//	4       4     payload length, big-endian (bounded by MaxFrameSize)
//	8       4     CRC-32C (Castagnoli) of bytes 0..8 plus the payload
//	12      n     payload
//
// The header is fixed-width so a reader can sync on it with one ReadFull,
// and the checksum covers the whole frame (header prefix included, so a
// flipped flags or length byte is caught too): a corrupted or truncated
// frame is rejected before the envelope decoder ever sees it. Version is per-frame
// rather than per-connection so mixed-version peers fail loudly on the
// first message instead of silently misparsing.
//
// Control frames (FlagControl) carry transport-internal payloads — the
// identity handshake and heartbeat pings — and never reach protocol code.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame constants.
const (
	frameMagic0  = 'M'
	frameMagic1  = 'B'
	FrameVersion = 4
	frameHeader  = 12

	// MaxFrameSize bounds a single payload. Checkpoints dominate frame
	// size (they embed ledger suffix + state snapshot); 64 MiB leaves
	// generous headroom while keeping a hostile length prefix from
	// ballooning allocation.
	MaxFrameSize = 64 << 20
)

// Frame flag bits.
const (
	FlagPriority = 1 << 0
	FlagControl  = 1 << 1

	flagKnown = FlagPriority | FlagControl
)

// Framing errors.
var (
	ErrFrameMagic    = errors.New("transport: bad frame magic")
	ErrFrameVersion  = errors.New("transport: unsupported frame version")
	ErrFrameFlags    = errors.New("transport: unknown frame flags")
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	ErrFrameChecksum = errors.New("transport: frame checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends a framed payload to dst and returns the extended
// slice. It is the allocation-free core of WriteFrame.
func AppendFrame(dst []byte, flags byte, payload []byte) []byte {
	base := len(dst)
	dst = append(dst, frameMagic0, frameMagic1, FrameVersion, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	sum := crc32.Checksum(dst[base:base+8], castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	dst = binary.BigEndian.AppendUint32(dst, sum)
	return append(dst, payload...)
}

// WriteFrame writes one framed payload to w.
func WriteFrame(w io.Writer, flags byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, frameHeader+len(payload)), flags, payload))
	return err
}

// ReadFrame reads one frame from r, validating magic, version, flags, size
// bound, and checksum. On success it returns the flags and payload. Any
// validation failure is a permanent stream error: framing is lost, so the
// caller must drop the connection.
//
// The payload is the frame's one allocation, and nothing writes to it again:
// a decoder may alias it. Read through a *bufio.Reader, the header is
// parsed in the reader's buffer and a connection's small frames cost one
// read call per buffer fill rather than two per frame.
func ReadFrame(r io.Reader) (flags byte, payload []byte, err error) {
	hdr, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, nil, ErrFrameMagic
	}
	if hdr[2] != FrameVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrFrameVersion, hdr[2])
	}
	flags = hdr[3]
	if flags&^flagKnown != 0 {
		return 0, nil, fmt.Errorf("%w: %#x", ErrFrameFlags, flags)
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	sum := binary.BigEndian.Uint32(hdr[8:12])
	want := crc32.Checksum(hdr[:8], castagnoli) // before the payload read reuses hdr's buffer
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	if crc32.Update(want, castagnoli, payload) != sum {
		return 0, nil, ErrFrameChecksum
	}
	return flags, payload, nil
}

// readHeader reads a frame header: in place from a *bufio.Reader's buffer,
// valid until its next read, or else into a fresh slice.
func readHeader(r io.Reader) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		hdr := make([]byte, frameHeader)
		_, err := io.ReadFull(r, hdr)
		return hdr, err
	}
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // io.ReadFull's report of a partial read
		}
		return nil, err
	}
	br.Discard(frameHeader)
	return hdr, nil
}

// Buffer sizes of the stream fabrics' connections. A writer frames what it
// has queued into one FrameBuf and writes it whenever it holds WriteChunk
// bytes, and once more when the queue is empty; a reader reads through a
// bufio.Reader of ReadBuffer bytes.
const (
	WriteChunk = 64 << 10
	ReadBuffer = 16 << 10
)

// FrameBuf is one writer's reused frame buffer.
type FrameBuf struct{ b []byte }

// Add frames payload onto the buffer and reports whether it now holds
// WriteChunk bytes, so the caller should write it before adding more.
func (f *FrameBuf) Add(flags byte, payload []byte) (full bool) {
	f.b = AppendFrame(f.b, flags, payload)
	return len(f.b) >= WriteChunk
}

// Len returns the number of framed bytes not yet written.
func (f *FrameBuf) Len() int { return len(f.b) }

// Flush writes the buffer to w in one call and empties it for reuse, even
// when the write fails. A buffer a large frame grew past twice WriteChunk is
// let go, so one checkpoint does not pin its size.
func (f *FrameBuf) Flush(w io.Writer) (int, error) {
	n, err := w.Write(f.b)
	if cap(f.b) > 2*WriteChunk {
		f.b = nil
	}
	f.b = f.b[:0]
	return n, err
}
