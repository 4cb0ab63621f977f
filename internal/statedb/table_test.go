package statedb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// fuzzKeys is the key space FuzzStoreAgainstMap draws from: the empty key,
// keys on both sides of the record's inline limit and of the string-key stack
// buffer, and enough numbered keys to double the table several times.
var fuzzKeys = func() []string {
	ks := []string{""}
	for _, n := range []int{inlineKey - 1, inlineKey, inlineKey + 1, stringKeyBuf - 1, stringKeyBuf, stringKeyBuf + 1, 300} {
		ks = append(ks, strings.Repeat("L", n), strings.Repeat("M", n)) // equal length, different bytes
	}
	for i := 0; len(ks) < 256; i++ {
		ks = append(ks, fmt.Sprintf("k%03d", i))
	}
	return ks
}()

var fuzzVals = [][]byte{nil, {}, []byte("a"), []byte("bb"), bytes.Repeat([]byte{7}, 100)}

// mapModel is the store FuzzStoreAgainstMap compares against: a map of the
// present keys, with the open snapshot as a copy of the map taken then and
// the set of keys written since.
type mapModel struct {
	data    map[string][]byte
	snap    map[string][]byte // nil: no open snapshot
	written map[string]bool
}

func newModel() *mapModel { return &mapModel{data: map[string][]byte{}} }

func (m *mapModel) write(k string, v []byte, present bool) {
	if _, held := m.data[k]; !held && !present {
		return // deleting an absent key is not a write
	}
	if m.snap != nil {
		m.written[k] = true
	}
	if present {
		m.data[k] = v
	} else {
		delete(m.data, k)
	}
}

func (m *mapModel) openSnapshot() {
	m.snap, m.written = make(map[string][]byte, len(m.data)), map[string]bool{}
	for k, v := range m.data {
		m.snap[k] = v
	}
}

func (m *mapModel) closeSnapshot() { m.snap, m.written = nil, nil }

func sortedRecs(data map[string][]byte) []rec {
	out := make([]rec, 0, len(data))
	for k, v := range data {
		out = append(out, rec{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

func hashOf(recs []rec) [32]byte {
	h := sha256.New()
	for _, r := range recs {
		for _, f := range [][]byte{[]byte(r.k), r.v} {
			h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f))))
			h.Write(f)
		}
	}
	return [32]byte(h.Sum(nil))
}

// agree fails unless s holds exactly what data holds, by every observer.
func agree(t *testing.T, what string, s *Store, data map[string][]byte) {
	t.Helper()
	recs := sortedRecs(data)
	size := 0
	for _, r := range recs {
		size += len(r.k) + len(r.v)
	}
	if s.Len() != len(data) || s.ByteSize() != size {
		t.Fatalf("%s: Len %d ByteSize %d, model %d and %d", what, s.Len(), s.ByteSize(), len(data), size)
	}
	if s.Hash() != hashOf(recs) {
		t.Fatalf("%s: Hash differs from the model's", what)
	}
	if err := s.ix.Verify(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if s.Records() > s.ix.Len() {
		t.Fatalf("%s: %d records for an index of %d keys", what, s.Records(), s.ix.Len())
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), snapshotBytes(recs...)) {
		t.Fatalf("%s: Save bytes differ from the model's", what)
	}
	for _, k := range fuzzKeys {
		got, ok := s.Get(k)
		want, wok := data[k]
		if ok != wok || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get(%q) = %q, %v; model %q, %v", what, k, got, ok, want, wok)
		}
	}
}

// FuzzStoreAgainstMap drives two stores on one index and two map models
// through the same random sequence of every mutator — the executor's Commit
// among them — and every way a store is copied, and after each step compares
// everything observable: Get over the whole key space, Len, ByteSize, Hash,
// Save bytes, and the open snapshot's Get, Delta and materialisation. The
// stores file keys in each other's index, Restore from each other on it, and
// leave it for one of their own by Load, so Restore crosses indexes too.
// Three input bytes make one step.
func FuzzStoreAgainstMap(f *testing.F) {
	var grow, churn []byte
	for i := range fuzzKeys {
		grow = append(grow, 0, byte(i), byte(i)) // put every key: five doublings
		churn = append(churn, byte(i%11), byte(i*7), byte(i))
	}
	f.Add(grow)
	f.Add(append(append([]byte{5, 0, 0}, grow...), churn...)) // all of it under a snapshot
	f.Add([]byte{0, 0, 0, 5, 0, 0, 2, 0, 0, 0, 0, 2, 6, 0, 0})
	f.Add([]byte{1, 3, 0, 5, 0, 0, 3, 3, 0, 8, 0, 0, 9, 0, 0, 10, 0, 0, 7, 0, 0})
	f.Add([]byte{12, 0, 2, 7, 0, 0, 12, 0, 3, 0, 9, 1, 7, 0, 0, 5, 0, 0, 12, 9, 4, 9, 0, 0, 10, 0, 0, 7, 0, 0, 9, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		ix := NewIndex()
		s, m := NewOn(ix), newModel()
		other, otherM := NewOn(ix), newModel()
		var sn *Snapshot
		for step := 0; len(in) >= 3 && step < 400; step++ {
			op, ki, v := in[0]%13, int(in[1]), fuzzVals[int(in[2])%len(fuzzVals)]
			k := fuzzKeys[ki]
			in = in[3:]
			switch op {
			case 0:
				s.Put(k, v)
				m.write(k, v, true)
			case 1:
				s.Put(k, nil) // present and empty
				m.write(k, nil, true)
			case 2:
				s.Delete(k)
				m.write(k, nil, false)
			case 3, 4: // three keys from k on, the second deleted; Apply in order, ApplyBatch as a set
				ks, vs, w := []string{}, [][]byte{}, map[string][]byte{}
				for j := 0; j < 3; j++ {
					kj, vj := fuzzKeys[(ki+j*5)%len(fuzzKeys)], v
					if j == 1 {
						vj = nil
					}
					ks, vs = append(ks, kj), append(vs, vj)
					w[kj] = vj
					m.write(kj, vj, vj != nil)
				}
				if op == 3 {
					s.Apply(ks, vs)
				} else {
					s.ApplyBatch(w)
				}
			case 5:
				sn = s.Snapshot()
				m.openSnapshot()
			case 6:
				if sn != nil {
					sn.Release()
					sn = nil
					m.closeSnapshot()
				}
			case 7: // carry on with the other pair; only the current one has a view open
				if sn != nil {
					sn.Release()
					sn = nil
					m.closeSnapshot()
				}
				s, other, m, otherM = other, s, otherM, m
			case 8:
				s, sn = s.Clone(), nil
				m.closeSnapshot()
			case 9:
				s.Restore(other)
				sn = nil
				m.closeSnapshot()
				m.data = make(map[string][]byte, len(otherM.data))
				for k, v := range otherM.data {
					m.data[k] = v
				}
			case 10:
				var buf bytes.Buffer
				if err := s.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatalf("step %d: Load of Save: %v", step, err)
				}
				s, sn = loaded, nil
				m.closeSnapshot()
			case 11:
				if sn != nil { // a materialised snapshot is a store like any other
					s, sn = sn.Store(), nil
					m.data = m.snap
					m.closeSnapshot()
				}
			case 12: // three keys from k on, the second deleted, committed as the executor does
				commit(s, fuzzKeys[ki], fuzzKeys[(ki+5)%len(fuzzKeys)], fuzzKeys[(ki+10)%len(fuzzKeys)], v)
				m.write(fuzzKeys[ki], v, v != nil)
				m.write(fuzzKeys[(ki+5)%len(fuzzKeys)], nil, false)
				m.write(fuzzKeys[(ki+10)%len(fuzzKeys)], v, v != nil)
			}
			what := fmt.Sprintf("step %d (op %d, key %q)", step, op, k)
			agree(t, what, s, m.data)
			if sn == nil {
				continue
			}
			if sn.Delta() != len(m.written) {
				t.Fatalf("%s: Delta %d, model %d", what, sn.Delta(), len(m.written))
			}
			for _, k := range fuzzKeys {
				got, ok := sn.Get(k)
				want, wok := m.snap[k]
				if ok != wok || !bytes.Equal(got, want) {
					t.Fatalf("%s: snapshot Get(%q) = %q, %v; model %q, %v", what, k, got, ok, want, wok)
				}
			}
			agree(t, what+" materialised", sn.Store(), m.snap)
		}
	})
}

// commit writes v under k0 and k2 and deletes k1 through Commit, looking the
// keys up in a View first and giving those the store has no record for an
// id in a table of new keys, as the Aria engine does.
func commit(s *Store, k0, k1, k2 string, v []byte) {
	var fresh Table
	var ids []int32
	s.View(func(r Reader) {
		for _, k := range []string{k0, k1, k2} {
			kb := []byte(k)
			h := HashKey(kb)
			id := r.Find(kb, h)
			if id < 0 {
				if id = fresh.Find(kb, h); id < 0 {
					id = fresh.Insert(kb, h)
				}
				id = ^id
			}
			ids = append(ids, id)
		}
	})
	s.Commit(ids, [][]byte{v, nil, v}, &fresh)
}

// TestKeyIDsAreNotObservable: a process's ids follow the order its stores
// first filed keys in, which differs from process to process; nothing a store
// reports may. The two stores are on indexes of their own: on a shared one a
// key has one id.
func TestKeyIDsAreNotObservable(t *testing.T) {
	const n = 500
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d-%s", i, strings.Repeat("x", i%40)) // both sides of the inline limit
	}
	val := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	a, b := New(), New()
	for i := range keys {
		a.Put(keys[i], val(i))
		j := (i*211 + 17) % n // a permutation: 211 is coprime to 500
		b.Put(keys[j], val(j))
	}
	moved := 0
	for _, k := range keys {
		if a.ix.k.find([]byte(k), HashKey([]byte(k))) != b.ix.k.find([]byte(k), HashKey([]byte(k))) {
			moved++
		}
	}
	if moved < n/2 {
		t.Fatalf("only %d of %d keys have different ids in the two stores: the test compares nothing", moved, n)
	}

	sameStores(t, "live", a, b)
	sa, sb := a.Snapshot(), b.Snapshot()
	for i := 0; i < n; i += 3 { // the views must not see these, in either order
		a.Delete(keys[i])
		b.Put(keys[n-1-i], nil)
	}
	sameStores(t, "Snapshot.Store()", sa.Store(), sb.Store())
	ra, rb := New(), New()
	ra.Restore(sa.Store().Clone())
	rb.Restore(sb.Store().Clone())
	sameStores(t, "Clone→Restore", ra, rb)
	sameStores(t, "Clone→Restore against the source", ra, sb.Store())
}

// TestMarksDoNotSurviveACopy: the executor's Slot marks and the snapshot's
// before-image marks describe one store's batch and one store's view. Every
// way of copying a store — onto its own index or onto another — must leave
// them behind.
func TestMarksDoNotSurviveACopy(t *testing.T) {
	ix := NewIndex()
	sibling := NewOn(ix)
	for i := 0; i < 300; i++ {
		sibling.Put(fmt.Sprintf("sibling%d", i), []byte{3}) // ids the store below never holds
	}
	s := NewOn(ix)
	for i := 0; i < 600; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte{1})
	}
	sn := s.Snapshot()
	s.View(func(r Reader) {
		for i := 0; i < 600; i++ {
			k := []byte(fmt.Sprintf("k%d", i))
			r.Record(r.Find(k, HashKey(k))).Slot = uint32(i + 1) // what an executor does
		}
	})
	for i := 0; i < 600; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte{2}) // every record gets a before-image mark
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, onIndex, reloaded := New(), NewOn(ix), NewOn(ix)
	restored.Restore(s)
	onIndex.Restore(s)
	reloaded.Restore(loaded)
	for name, c := range map[string]*Store{
		"Clone": s.Clone(), "Restore": restored, "Load": loaded, "Snapshot.Store": sn.Store(),
		"Restore on the index": onIndex, "Restore of a Load on the index": reloaded,
	} {
		if c.snap != nil || len(c.before) != 0 {
			t.Fatalf("%s: the copy has an open snapshot", name)
		}
		for id := int32(0); int(id) < c.recs.n; id++ {
			if r := c.recs.at(id); r.Slot != 0 || r.image != 0 {
				t.Fatalf("%s: record %d carries Slot %d, image %d", name, id, r.Slot, r.image)
			}
		}
	}
}

// sameStores fails unless x and y agree on everything a store reports.
func sameStores(t *testing.T, what string, x, y *Store) {
	t.Helper()
	saved := func(s *Store) string {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if x.Hash() != y.Hash() || saved(x) != saved(y) || x.Len() != y.Len() || x.ByteSize() != y.ByteSize() {
		t.Fatalf("%s: the stores differ", what)
	}
}

// TestSharedIndexStoresAgree: stores on one index fed the same writes in
// different orders file their keys once between them and report what a
// store on an index of its own reports, live and through every copy.
func TestSharedIndexStoresAgree(t *testing.T) {
	const n = 1500 // past a chunk of key records
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d-%s", i, strings.Repeat("x", i%40)) // both sides of the inline limit
	}
	val := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	ix := NewIndex()
	a, b, private := NewOn(ix), NewOn(ix), New()
	for i := range keys {
		a.Put(keys[i], val(i))
		j := (i*211 + 17) % n // a permutation: 211 is coprime to 1500
		b.Apply([]string{keys[j]}, [][]byte{val(j)})
		k := n - 1 - i // through Commit, beside a delete of a key no store wrote
		commit(private, keys[k], "never-written", keys[k], val(k))
	}
	if ix.Len() != n {
		t.Fatalf("two stores filed %d keys in their index, want the %d distinct ones", ix.Len(), n)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	sameStores(t, "live", a, b)
	sameStores(t, "live, against a private index", a, private)

	sa, sb, sp := a.Snapshot(), b.Snapshot(), private.Snapshot()
	for i := 0; i < n; i += 3 { // the views must not see these
		a.Delete(keys[i])
		b.Put(keys[n-1-i], nil)
		private.Put(fmt.Sprintf("new%d", i), nil)
	}
	sameStores(t, "Snapshot.Store()", sa.Store(), sb.Store())
	sameStores(t, "Snapshot.Store(), against a private index", sa.Store(), sp.Store())

	ra, rb, rp := NewOn(ix), NewOn(ix), New()
	ra.Restore(sa.Store().Clone())
	rb.Restore(sb.Store().Clone())
	rp.Restore(sp.Store().Clone())
	sameStores(t, "Clone→Restore", ra, rb)
	sameStores(t, "Clone→Restore, against a private index", ra, rp)
	sameStores(t, "Clone→Restore against the source", ra, sb.Store())
}

// TestKeyFiledElsewhereIsNeverHeld: a key another store filed in the shared
// index is absent here by every observer, whether the id lies beyond this
// store's records or inside them, and nothing this store reports counts it.
func TestKeyFiledElsewhereIsNeverHeld(t *testing.T) {
	ix := NewIndex()
	a, b := NewOn(ix), NewOn(ix)
	b.Put("b0", []byte("v"))
	a.Put("gap", []byte("a's")) // an id inside b's records once b files the next key
	b.Put("b1", []byte("w"))
	a.Put("beyond", []byte("a's")) // an id beyond them
	want := New()
	want.Put("b0", []byte("v"))
	want.Put("b1", []byte("w"))
	sn := b.Snapshot()
	defer sn.Release()
	for _, k := range []string{"gap", "beyond"} {
		if v, ok := b.Get(k); ok {
			t.Errorf("Get(%q) = %q in a store that never held it", k, v)
		}
		if v, ok := sn.Get(k); ok {
			t.Errorf("Snapshot.Get(%q) = %q in a store that never held it", k, v)
		}
		b.View(func(r Reader) {
			if v, ok := r.Get(k); ok {
				t.Errorf("Reader.Get(%q) = %q in a store that never held it", k, v)
			}
			kb := []byte(k)
			id := r.Find(kb, HashKey(kb))
			if k == "beyond" && id != -1 {
				t.Errorf("Reader.Find(%q) = %d, want -1: the id is beyond the store's records", k, id)
			}
			if id >= 0 {
				if v, ok := r.Record(id).Value(); ok {
					t.Errorf("the record of %q holds %q in a store that never held it", k, v)
				}
			}
		})
	}
	sameStores(t, "a store beside the one that filed the keys", b, want)
	sameStores(t, "its snapshot", sn.Store(), want)
	if b.Records() > 3 {
		t.Errorf("b keeps %d records: reading a key must not make the store hold it", b.Records())
	}
}

// TestRestoreLoadedIntoSharedIndex: a state transfer arrives as a Loaded
// store on an index of its own; restoring it files its keys in the
// receiver's index, beside those already there and without filing any twice.
func TestRestoreLoadedIntoSharedIndex(t *testing.T) {
	ix := NewIndex()
	src, dst := NewOn(ix), NewOn(ix)
	for i := 0; i < 400; i++ {
		src.Put(fmt.Sprintf("k%03d%s", i, strings.Repeat("y", i%35)), []byte{byte(i)})
	}
	for i := 0; i < 400; i += 2 {
		src.Delete(fmt.Sprintf("k%03d%s", i, strings.Repeat("y", i%35)))
		dst.Put(fmt.Sprintf("dst%d", i), []byte{1}) // keys only dst holds, to be replaced
	}
	dst.Snapshot() // Restore closes it
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	filed := ix.Len()
	dst.Restore(loaded)
	sameStores(t, "Restore of a Load", dst, src)
	if ix.Len() != filed {
		t.Errorf("the restore filed %d keys the index already held", ix.Len()-filed)
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 2 {
		if _, ok := dst.Get(fmt.Sprintf("dst%d", i)); ok {
			t.Fatalf("dst%d survived the restore", i)
		}
	}
	third := NewOn(NewIndex()) // and from a shared index onto another
	third.Restore(dst)
	sameStores(t, "Restore onto a third index", third, src)
}
