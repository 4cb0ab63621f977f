package transport

// Wire framing for stream transports. Every frame is:
//
//	offset  size  field
//	0       2     magic "MB"
//	2       1     version (currently 3)
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
	FrameVersion = 3
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
func ReadFrame(r io.Reader) (flags byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
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
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	want := crc32.Checksum(hdr[:8], castagnoli)
	want = crc32.Update(want, castagnoli, payload)
	if want != sum {
		return 0, nil, ErrFrameChecksum
	}
	return flags, payload, nil
}
