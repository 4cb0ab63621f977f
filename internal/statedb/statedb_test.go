package statedb

import (
	"bytes"
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
}
