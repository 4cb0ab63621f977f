package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	flagSets := []byte{0, FlagPriority, FlagControl, FlagPriority | FlagControl}
	for _, p := range payloads {
		for _, fl := range flagSets {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, fl, p); err != nil {
				t.Fatalf("write: %v", err)
			}
			gotFlags, got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if gotFlags != fl || !bytes.Equal(got, p) {
				t.Fatalf("round-trip mismatch: flags %d->%d, %d bytes -> %d", fl, gotFlags, len(p), len(got))
			}
		}
	}
}

// TestFrameCorruption: flipping any single byte of a frame must make
// ReadFrame reject it (magic, version, flags, length, or checksum error) —
// never decode silently, never panic.
func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FlagPriority, []byte("the payload under test")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= bit
			_, _, err := ReadFrame(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("corrupted byte %d (bit %#x) accepted", i, bit)
			}
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := 0; i < len(frame); i++ {
		_, _, err := ReadFrame(bytes.NewReader(frame[:i]))
		if err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", i, len(frame))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
			!errors.Is(err, ErrFrameMagic) && !errors.Is(err, ErrFrameChecksum) {
			// Any of the above is fine; anything else is unexpected.
			t.Fatalf("truncation at %d: unexpected error %v", i, err)
		}
	}
}

func TestFrameLimits(t *testing.T) {
	// Oversize write is refused before touching the writer.
	err := WriteFrame(io.Discard, 0, make([]byte, MaxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: got %v", err)
	}
	// A hostile length prefix is refused before allocation.
	hdr := []byte{'M', 'B', FrameVersion, 0}
	hdr = binary.BigEndian.AppendUint32(hdr, MaxFrameSize+1)
	hdr = binary.BigEndian.AppendUint32(hdr, 0)
	_, _, err = ReadFrame(bytes.NewReader(hdr))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length: got %v", err)
	}
	// Unknown flag bits are refused (reserved for future versions).
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, []byte("p")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[3] = 0x80
	_, _, err = ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrFrameFlags) {
		t.Fatalf("unknown flags: got %v", err)
	}
	// Wrong version is refused.
	frame[3] = 0
	frame[2] = FrameVersion + 1
	_, _, err = ReadFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("wrong version: got %v", err)
	}
}

// FuzzFrameStream: frames concatenated the way one coalesced write carries
// them come back identical and in order through a buffered reader, however
// the stream is split into reads; and arbitrary bytes read as a stream end
// in an error, never a panic, with no read allocating past MaxFrameSize.
func FuzzFrameStream(f *testing.F) {
	var seed []byte
	for i, p := range [][]byte{[]byte("one"), nil, bytes.Repeat([]byte{7}, 40)} {
		seed = AppendFrame(seed, byte(i)&flagKnown, p)
	}
	f.Add(seed)
	f.Add([]byte{0x03, 'a', 'b', 0x80, 'c'})
	f.Add(AppendFrame(nil, FlagPriority, bytes.Repeat([]byte("x"), 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cut data into frames: each flags byte's upper bits say how many of
		// the bytes after it are that frame's payload.
		type frame struct {
			flags   byte
			payload []byte
		}
		var want []frame
		var stream []byte
		for rest := data; len(rest) > 0; {
			n := min(int(rest[0]>>2), len(rest)-1)
			fr := frame{rest[0] & flagKnown, rest[1 : 1+n]}
			want = append(want, fr)
			stream = AppendFrame(stream, fr.flags, fr.payload)
			rest = rest[1+n:]
		}
		for _, split := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader} {
			r := bufio.NewReaderSize(split(bytes.NewReader(stream)), 16) // smaller than most frames
			for i, w := range want {
				flags, payload, err := ReadFrame(r)
				if err != nil {
					t.Fatalf("frame %d of %d: %v", i, len(want), err)
				}
				if flags != w.flags || !bytes.Equal(payload, w.payload) {
					t.Fatalf("frame %d: flags %#x, %q; want %#x, %q", i, flags, payload, w.flags, w.payload)
				}
			}
			if _, _, err := ReadFrame(r); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF", err)
			}
		}

		// The input itself as a stream: every frame read back re-frames to
		// the bytes it came from, and the stream ends in an error.
		r := bufio.NewReader(iotest.HalfReader(bytes.NewReader(data)))
		var ms runtime.MemStats
		for off := 0; ; {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			flags, payload, err := ReadFrame(r)
			runtime.ReadMemStats(&ms)
			if grew := ms.TotalAlloc - before; grew > MaxFrameSize+4<<10 {
				t.Fatalf("one read allocated %d bytes", grew)
			}
			if err != nil {
				break
			}
			end := off + frameHeader + len(payload)
			if !bytes.Equal(AppendFrame(nil, flags, payload), data[off:end]) {
				t.Fatalf("frame at %d does not re-frame to its bytes", off)
			}
			off = end
		}
	})
}
