package statedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put("a", []byte("1"))
	v, ok := s.Get("a")
	if !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatal("Get after Put wrong")
	}
	s.Put("a", []byte("2"))
	v, _ = s.Get("a")
	if !bytes.Equal(v, []byte("2")) {
		t.Fatal("overwrite failed")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("Delete failed")
	}
	if s.Len() != 0 {
		t.Fatal("Len after delete")
	}
}

func TestApplyBatchWithDeletes(t *testing.T) {
	s := New()
	s.Put("keep", []byte("k"))
	s.Put("drop", []byte("d"))
	s.ApplyBatch(map[string][]byte{"drop": nil, "new": []byte("n")})
	if _, ok := s.Get("drop"); ok {
		t.Fatal("nil value did not delete")
	}
	if v, ok := s.Get("new"); !ok || !bytes.Equal(v, []byte("n")) {
		t.Fatal("batch write missing")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestApplyInOrderAndViewSeesIt(t *testing.T) {
	s := New()
	s.Put("drop", []byte("d"))
	s.Apply([]string{"drop", "k", "k"}, [][]byte{nil, []byte("1"), []byte("2")})
	s.View(func(r Reader) {
		if _, ok := r.Get("drop"); ok {
			t.Error("nil value did not delete")
		}
		if v, ok := r.Get("k"); !ok || !bytes.Equal(v, []byte("2")) {
			t.Errorf("k = %q, want the later write", v)
		}
	})
	want := New()
	want.ApplyBatch(map[string][]byte{"k": []byte("2")})
	if s.Hash() != want.Hash() {
		t.Fatal("Apply and ApplyBatch disagree")
	}
}

func TestHashDeterministicAndOrderIndependent(t *testing.T) {
	a, b := New(), New()
	a.Put("x", []byte("1"))
	a.Put("y", []byte("2"))
	b.Put("y", []byte("2"))
	b.Put("x", []byte("1"))
	if a.Hash() != b.Hash() {
		t.Fatal("insertion order changed hash")
	}
	b.Put("x", []byte("9"))
	if a.Hash() == b.Hash() {
		t.Fatal("hash insensitive to value change")
	}
}

func TestHashDistinguishesKeyBoundaries(t *testing.T) {
	a, b := New(), New()
	a.Put("ab", []byte("c"))
	b.Put("a", []byte("bc"))
	if a.Hash() == b.Hash() {
		t.Fatal("length-prefixing failed: ab/c == a/bc")
	}
}

func TestClone(t *testing.T) {
	s := New()
	s.Put("a", []byte("1"))
	c := s.Clone()
	if c.Hash() != s.Hash() {
		t.Fatal("clone hash differs")
	}
	c.Put("a", []byte("2"))
	c.Put("b", []byte("3"))
	s.Delete("a")
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("2")) || s.Len() != 0 || c.Len() != 2 {
		t.Fatal("clone and original share a map")
	}
}

// TestCloneAndRestoreShareValues: values are immutable, so a snapshot costs
// one map copy, not one allocation per value.
func TestCloneAndRestoreShareValues(t *testing.T) {
	s := New()
	v := []byte("value")
	s.Put("a", v)
	r := New()
	r.Put("stale", []byte("x"))
	r.Restore(s)
	for name, got := range map[string]*Store{"Clone": s.Clone(), "Restore": r} {
		gv, ok := got.Get("a")
		if !ok || &gv[0] != &v[0] {
			t.Fatalf("%s copied the value instead of sharing it", name)
		}
		if got.Len() != 1 || got.Hash() != s.Hash() {
			t.Fatalf("%s: contents differ", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	s.Put("alpha", []byte("1"))
	s.Put("beta", []byte{0, 1, 2, 255})
	s.Put("empty", nil)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != s.Hash() {
		t.Fatal("snapshot round trip changed state")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("notadb!\x00\x00\x00\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Header claiming records that are not present.
	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[11] = 9 // record count 9, but no records follow
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated record set accepted")
	}

	// A 30-byte frame declaring a 256 MiB value: rejected, and without
	// allocating on the say-so of the length field.
	huge := snapshotBytes(rec{"k", nil})
	huge = append(huge[:len(huge)-4], 0x10, 0, 0, 0, 'x')
	var err error
	if _, n := allocated(func() { _, err = Load(bytes.NewReader(huge)) }); err == nil || n > 1<<20 {
		t.Fatalf("%d-byte input declaring a 256 MiB value: err = %v after allocating %d bytes", len(huge), err, n)
	}
	hugeKey := append(snapshotBytes()[:8], 0, 0, 0, 1, 0, 0x10, 0, 0, 'x')
	if _, n := allocated(func() { _, err = Load(bytes.NewReader(hugeKey)) }); err == nil || n > 1<<19 {
		t.Fatalf("input declaring a 1 MiB key: err = %v after allocating %d bytes", err, n)
	}
	// A value longer than one allocation step still loads whole.
	big := bytes.Repeat([]byte{7}, 3*loadChunk+5)
	if got, err := Load(bytes.NewReader(snapshotBytes(rec{"big", big}))); err != nil {
		t.Fatal(err)
	} else if v, _ := got.Get("big"); !bytes.Equal(v, big) {
		t.Fatal("a multi-chunk value did not load whole")
	}

	// Save writes strictly ascending keys; anything else is not a snapshot
	// (a duplicate used to overwrite silently, so the declared count was not
	// what was loaded).
	for name, recs := range map[string][]rec{
		"duplicate key": {{"a", []byte("1")}, {"a", []byte("2")}},
		"unsorted keys": {{"b", []byte("1")}, {"a", []byte("2")}},
	} {
		if _, err := Load(bytes.NewReader(snapshotBytes(recs...))); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

type rec struct {
	k string
	v []byte
}

// snapshotBytes encodes records in the order given, as Save would if that
// were its order.
func snapshotBytes(recs ...rec) []byte {
	b := []byte("massdb1\x00")
	b = binary.BigEndian.AppendUint32(b, uint32(len(recs)))
	for _, r := range recs {
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.k)))
		b = append(b, r.k...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.v)))
		b = append(b, r.v...)
	}
	return b
}

// allocated is the heap fn allocates, in objects and in bytes (nothing else
// runs in these tests, so the process-wide counters are fn's).
func allocated(fn func()) (objects, size uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// FuzzLoad checks the snapshot decoder on untrusted bytes: it never panics,
// never allocates more than a small multiple of its input, and whatever loads
// re-saves to the identical bytes (so the encoding is canonical: one byte
// string per store content).
func FuzzLoad(f *testing.F) {
	s := New()
	for _, n := range []int{0, 1, 40} {
		for i := s.Len(); i < n; i++ {
			s.Put(fmt.Sprintf("user%04d", i), bytes.Repeat([]byte{byte(i)}, i%7))
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(snapshotBytes(rec{"a", nil}, rec{"a", nil}))
	f.Add(append(snapshotBytes(rec{"k", nil})[:17], 0x10, 0, 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Store
		var err error
		// Per record, 9 bytes of input can cost a key, a value and a table
		// slot; 64 KiB covers the reader's buffer and the first chunk.
		if _, n := allocated(func() { got, err = Load(bytes.NewReader(data)) }); n > 64<<10+32*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.Bytes(); len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("a loaded snapshot re-saved to different bytes")
		}
	})
}
