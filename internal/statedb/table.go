package statedb

import (
	"encoding/binary"
	"hash/maphash"
)

// Table is the key table under a Store: it maps a byte-string key to a dense
// id, assigned the first time the table sees the key and never reused, and
// keeps one fixed-size Record per id.
//
// The index is a flat open-addressing array of 64-bit slots, each the key's
// 32-bit hash beside its id, so a lookup is one hash, one probe sequence over
// 8-byte slots and — on a hash match — one record line, which holds the key
// bytes to compare and everything a caller wants next. Doubling the index
// moves slots by the hash they carry and never looks at a key. Records live
// in fixed-size chunks, so they never move: growth allocates a chunk, and a
// *Record stays valid for as long as the table holds its key.
//
// A Table is not synchronised. The zero value is an empty table. A Store
// owns one; the Aria engine keeps a second, emptied per batch, for the keys
// a batch touches that its store has never held.
type Table struct {
	slots  []uint64 // hash<<32 | id+1; 0 is empty; len is a power of two
	chunks []*[chunkSize]Record
	n      int      // ids handed out: records 0..n-1 exist
	long   [][]byte // the keys too long for a record, by the index it holds
}

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits

	// inlineKey is how many key bytes a record holds itself; it makes a
	// Record 64 bytes. Every key the shipped workloads build is shorter
	// (TPC-C's longest in practice is 18 bytes).
	inlineKey = 26
	longKey   = 0xff // Record.klen of a key kept in Table.long
)

// Record is what a Table keeps per key: the key, its value and presence, and
// two marks that make per-batch and per-snapshot bookkeeping a field access
// instead of a second table. A key that is deleted keeps its record (absent,
// no value), ready for the next insert.
type Record struct {
	val []byte

	// Slot is scratch for the one executor that runs batches over the store:
	// where this key's reservations are in the batch in flight. Nothing in
	// this package reads it, and no copy of a table (Clone, Restore, Load,
	// Snapshot.Store) carries it over. The executor writes it while holding
	// only the store's read lock, which is sound because no one else touches
	// the word; whoever reads it must be able to tell a stale value (aria
	// checks it against its own slot array).
	Slot uint32

	// image is the before-image mark: in a store, the index in Store.before
	// of what the key held when the open snapshot was taken (valid only if
	// that entry names this record); in an executor's table of new keys, the
	// id the store gave the key when its first write was committed, plus one.
	image uint32

	hash    uint32
	present bool
	klen    uint8 // len(key), or longKey
	kb      [inlineKey]byte
}

// Value returns the record's value and whether the key is present.
func (r *Record) Value() ([]byte, bool) { return r.val, r.present }

var hashSeed = maphash.MakeSeed()

// counts, when a test sets it, counts the work the cost ceilings are stated
// in: keys hashed and tables probed. Nil outside those tests.
var counts *struct{ hashes, probes int }

// HashKey is the hash a Table files key under. Find and Insert take it as an
// argument so that a caller that consults two tables, or looks a key up and
// inserts it later, hashes once. The seed is drawn per process: ids, slot
// positions and hashes are node-local and never observable.
func HashKey(key []byte) uint32 {
	if counts != nil {
		counts.hashes++
	}
	return uint32(maphash.Bytes(hashSeed, key))
}

// Record returns the record of an id that Find or Insert returned.
func (t *Table) Record(id int32) *Record {
	return &t.chunks[id>>chunkBits][id&(chunkSize-1)]
}

// Key returns id's key. The bytes belong to the table: read, don't keep.
func (t *Table) Key(id int32) []byte { return t.keyOf(t.Record(id)) }

func (t *Table) keyOf(r *Record) []byte {
	if r.klen == longKey {
		return t.long[binary.LittleEndian.Uint32(r.kb[:])]
	}
	return r.kb[:r.klen]
}

// Find returns key's id, or -1 if the table has never held it. h is
// HashKey(key).
func (t *Table) Find(key []byte, h uint32) int32 {
	if counts != nil {
		counts.probes++
	}
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) != h {
			continue
		}
		if id := int32(uint32(s)) - 1; string(t.keyOf(t.Record(id))) == string(key) {
			return id
		}
	}
}

// stringKeyBuf is the stack buffer a string key is copied into on its way to
// Find; a longer key costs an allocation per lookup.
const stringKeyBuf = 64

// findString is Find for the string-keyed methods of a Store; it returns the
// hash too, for the Insert that may follow a miss.
func (t *Table) findString(key string) (id int32, h uint32) {
	var buf [stringKeyBuf]byte
	kb := append(buf[:0], key...)
	h = HashKey(kb)
	return t.Find(kb, h), h
}

// Insert gives key the next id and returns it; the record starts absent. The
// key must not be in the table. The table copies key — the one time a key's
// bytes are copied — so the caller may reuse its buffer.
func (t *Table) Insert(key []byte, h uint32) int32 {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	id := int32(t.n)
	if t.n>>chunkBits == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkSize]Record))
	}
	t.n++
	r := t.Record(id)
	*r = Record{hash: h}
	if len(key) <= inlineKey {
		r.klen = uint8(copy(r.kb[:], key))
	} else {
		r.klen = longKey
		binary.LittleEndian.PutUint32(r.kb[:], uint32(len(t.long)))
		t.long = append(t.long, append([]byte(nil), key...))
	}
	t.place(uint64(h)<<32 | uint64(id+1))
	return id
}

// place files a slot at the first free position of its probe sequence.
func (t *Table) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s>>32) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the index. Each slot carries its hash, so no key is read.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(16, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// Reset empties the table, keeping its memory for the next fill.
func (t *Table) Reset() {
	if t.n == 0 {
		return
	}
	clear(t.slots)
	clear(t.long)
	t.long = t.long[:0]
	t.n = 0
}

// clone returns an independent table holding the same keys under the same
// ids, sharing the (immutable) value slices and long keys. Marks are
// not copied — field by field, so that the executor's Slot words, which it
// writes under the read lock, are not even read.
func (t *Table) clone() Table {
	c := Table{
		slots: append([]uint64(nil), t.slots...),
		n:     t.n,
		long:  append([][]byte(nil), t.long...),
	}
	for left := t.n; left > 0; left -= chunkSize {
		src, dst := t.chunks[len(c.chunks)], new([chunkSize]Record)
		for j := range src[:min(chunkSize, left)] {
			r, d := &src[j], &dst[j]
			d.val, d.hash, d.present, d.klen, d.kb = r.val, r.hash, r.present, r.klen, r.kb
		}
		c.chunks = append(c.chunks, dst)
	}
	return c
}
