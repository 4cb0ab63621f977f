package statedb

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"unsafe"
)

// keyTable maps a byte-string key to a dense id, assigned the first time the
// table sees the key and never reused, and keeps each id's key.
//
// The index is a flat open-addressing array of 64-bit slots, each the key's
// 32-bit hash beside its id, so a lookup is one hash, one probe sequence over
// 8-byte slots and — on a hash match — one 32-byte key record to compare.
// Doubling the index moves slots by the hash they carry and never looks at a
// key. Key records live in fixed-size chunks, so they never move: growth
// allocates a chunk, and the bytes Key returns stay valid and unchanged for
// as long as the table holds the key.
//
// A keyTable is not synchronised. The zero value is an empty table.
type keyTable struct {
	slots  []uint64 // hash<<32 | id+1; 0 is empty; len is a power of two
	chunks []*[chunkSize]keyRec
	n      int      // ids handed out: key records 0..n-1 exist
	long   [][]byte // the keys too long for a key record, by the index it holds
}

const (
	// Key records come in chunks of 16 KiB and records in chunks of 32 KiB,
	// so a store of a few keys stays small (FuzzLoad). A chunk of records
	// holds pointers, so the runtime puts an 8-byte header before it unless
	// it is a large object (32 KiB is): an 8 KiB chunk would take 9.25 KiB.
	chunkBits    = 9
	chunkSize    = 1 << chunkBits
	recChunkBits = 11
	recChunkSize = 1 << recChunkBits

	// inlineKey is how many key bytes a key record holds itself; it makes a
	// keyRec 32 bytes. Every key the shipped workloads build is shorter
	// (TPC-C's longest in practice is 18 bytes).
	inlineKey = 27
	longKey   = 0xff // keyRec.klen of a key kept in keyTable.long
)

// keyRec is what a keyTable keeps per id: the key and the hash it is filed
// under.
type keyRec struct {
	hash uint32
	klen uint8 // len(key), or longKey
	kb   [inlineKey]byte
}

var hashSeed = maphash.MakeSeed()

// counts, when a test sets it, counts the work the cost ceilings are stated
// in: keys hashed, key tables probed and keys filed in an Index. Nil outside
// those tests.
var counts *struct{ hashes, probes, inserts int }

// HashKey is the hash a key table files key under. Find and Insert take it as
// an argument so that a caller that consults two tables, or looks a key up
// and inserts it later, hashes once. The seed is drawn per process: ids, slot
// positions and hashes are process-local and never observable.
func HashKey(key []byte) uint32 {
	if counts != nil {
		counts.hashes++
	}
	return uint32(maphash.Bytes(hashSeed, key))
}

func (k *keyTable) rec(id int32) *keyRec {
	return &k.chunks[id>>chunkBits][id&(chunkSize-1)]
}

// key returns id's key. The bytes belong to the table: read, don't keep.
func (k *keyTable) key(id int32) []byte {
	r := k.rec(id)
	if r.klen == longKey {
		return k.long[binary.LittleEndian.Uint32(r.kb[:])]
	}
	return r.kb[:r.klen]
}

// find returns key's id, or -1 if the table has never held it. h is
// HashKey(key).
func (k *keyTable) find(key []byte, h uint32) int32 {
	if counts != nil {
		counts.probes++
	}
	if len(k.slots) == 0 {
		return -1
	}
	mask := uint32(len(k.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := k.slots[i]
		if s == 0 {
			return -1
		}
		if uint32(s>>32) != h {
			continue
		}
		if id := int32(uint32(s)) - 1; string(k.key(id)) == string(key) {
			return id
		}
	}
}

// stringKeyBuf is the stack buffer a string key is copied into on its way to
// find; a longer key costs an allocation per lookup.
const stringKeyBuf = 64

// findString is find for the string-keyed methods of a Store; it returns the
// hash too, for the insert that may follow a miss.
func (k *keyTable) findString(key string) (id int32, h uint32) {
	var buf [stringKeyBuf]byte
	kb := append(buf[:0], key...)
	h = HashKey(kb)
	return k.find(kb, h), h
}

// insert gives key the next id and returns it. The key must not be in the
// table. The table copies key — the one time a key's bytes are copied — so
// the caller may reuse its buffer.
func (k *keyTable) insert(key []byte, h uint32) int32 {
	if (k.n+1)*4 > len(k.slots)*3 {
		k.grow()
	}
	id := int32(k.n)
	if k.n>>chunkBits == len(k.chunks) {
		k.chunks = append(k.chunks, new([chunkSize]keyRec))
	}
	k.n++
	r := k.rec(id)
	r.hash = h
	if len(key) <= inlineKey {
		r.klen = uint8(copy(r.kb[:], key))
	} else {
		r.klen = longKey
		binary.LittleEndian.PutUint32(r.kb[:], uint32(len(k.long)))
		k.long = append(k.long, append([]byte(nil), key...))
	}
	k.place(uint64(h)<<32 | uint64(id+1))
	return id
}

// place files a slot at the first free position of its probe sequence.
func (k *keyTable) place(s uint64) {
	mask := uint32(len(k.slots) - 1)
	i := uint32(s>>32) & mask
	for k.slots[i] != 0 {
		i = (i + 1) & mask
	}
	k.slots[i] = s
}

// grow doubles the index. Each slot carries its hash, so no key is read.
func (k *keyTable) grow() {
	old := k.slots
	k.slots = make([]uint64, max(16, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			k.place(s)
		}
	}
}

// Index is the key half of a store: the keyTable that gives each key its id,
// behind a lock of its own. The stores of one process share one, so each key
// is filed once per process and every store after the first to look a key
// up finds it in an index hot in cache; each store keeps its own records,
// by those ids (Store). Ids are process-local and never observable.
//
// Whoever holds a store's lock takes the index's after it, never before.
type Index struct {
	mu sync.RWMutex
	k  keyTable
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{} }

// Len returns how many keys the index holds.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.k.n
}

// Verify checks that every key the index holds is filed once, under the id
// it was given: a key filed twice finds one of its ids only.
func (ix *Index) Verify() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	filed := 0
	for _, s := range ix.k.slots {
		if s != 0 {
			filed++
		}
	}
	if filed != ix.k.n {
		return fmt.Errorf("statedb: the index files %d slots for %d keys", filed, ix.k.n)
	}
	for id := int32(0); int(id) < ix.k.n; id++ {
		key := ix.k.key(id)
		if got := ix.k.find(key, ix.k.rec(id).hash); got != id {
			return fmt.Errorf("statedb: key %q of id %d is found as id %d", key, id, got)
		}
	}
	return nil
}

// filed returns the keys filed so far, for key() on any id below its n
// without the lock: a filed key's record and bytes never change and its
// chunk never moves, so the view stays valid while the index grows. Its
// slots are nil: it finds nothing.
func (ix *Index) filed() keyTable {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return keyTable{chunks: ix.k.chunks, n: ix.k.n, long: ix.k.long}
}

// file returns key's id, giving it the next one if the index has never held
// it. h is HashKey(key).
func (ix *Index) file(key []byte, h uint32) int32 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id := ix.k.find(key, h); id >= 0 {
		return id
	}
	if counts != nil {
		counts.inserts++
	}
	return ix.k.insert(key, h)
}

// Record is what a store keeps per key id, in 16 bytes (12 and the pointer's
// alignment): a reference to the key's value, which says whether the key is
// present. A simulated cluster holds a record per key per node, so every
// byte here is paid once per key per store. A key that is deleted keeps its
// record (absent, no value), ready for the next insert.
type Record struct {
	p *byte  // the value's first byte (ref)
	n uint32 // len(value) | presentBit
}

// presentBit is the bit of a value reference's length word that says the key
// is present, so that a present, empty value and an absent key stay apart.
const presentBit = 1 << 31

// ref returns the reference a record keeps for (val, present): val's first
// byte and its length, with presentBit set if present. deref is its inverse.
//
// These two helpers are the package's only unsafe code. A slice and a bool
// take 32 bytes; a pointer and a word take 12, which is what fits a record
// in 16. The pointer keeps val's array reachable as the slice did. The slice
// deref rebuilds has the length val had and no spare capacity: values are
// immutable (Store), so nothing needs the capacity, and a reader's append
// copies instead of writing past the value.
func ref(val []byte, present bool) (*byte, uint32) {
	if uint64(len(val)) >= presentBit {
		panic("statedb: value of 2 GiB or more")
	}
	n := uint32(len(val))
	if present {
		n |= presentBit
	}
	return unsafe.SliceData(val), n
}

func deref(p *byte, n uint32) ([]byte, bool) {
	return unsafe.Slice(p, n&^presentBit), n&presentBit != 0
}

// Value returns the record's value and whether the key is present. The value
// is read-only: it may be shared by every store of the process.
func (r *Record) Value() ([]byte, bool) { return deref(r.p, r.n) }

// records is a store's Records, by key id, in fixed-size chunks that never
// move. Ids 0..n-1 have one; an id at or above n is one the store has never
// held.
type records struct {
	chunks []*[recChunkSize]Record
	n      int
}

func (rs *records) at(id int32) *Record {
	return &rs.chunks[id>>recChunkBits][id&(recChunkSize-1)]
}

// cover makes ids up to id have a record, absent.
func (rs *records) cover(id int32) {
	for ; rs.n <= int(id); rs.n++ {
		if rs.n>>recChunkBits == len(rs.chunks) {
			rs.chunks = append(rs.chunks, new([recChunkSize]Record))
		}
		*rs.at(int32(rs.n)) = Record{}
	}
}

// clone returns independent records holding the same values, sharing the
// (immutable) values: a copy of each chunk.
func (rs *records) clone() records {
	c := records{n: rs.n}
	for _, src := range rs.chunks {
		dst := *src
		c.chunks = append(c.chunks, &dst)
	}
	return c
}

// Table is a private key table: what the Aria engine keeps, emptied per
// batch, for the keys a batch touches that its store has never held. Beside
// each key it keeps the id the store gave the key when its first write was
// committed (Store.Commit). It is not synchronised. The zero value is an
// empty table.
type Table struct {
	k     keyTable
	filed []int32 // by id: the key's id in the store, -1 until a write to it commits
}

// Find returns key's id, or -1 if the table has never held it. h is
// HashKey(key).
func (t *Table) Find(key []byte, h uint32) int32 { return t.k.find(key, h) }

// Insert gives key the next id and returns it. The key must not be in the
// table; the table copies it.
func (t *Table) Insert(key []byte, h uint32) int32 {
	t.filed = append(t.filed, -1)
	return t.k.insert(key, h)
}

// Key returns id's key. The bytes belong to the table: read, don't keep.
func (t *Table) Key(id int32) []byte { return t.k.key(id) }

// Reset empties the table, keeping its memory for the next fill.
func (t *Table) Reset() {
	if t.k.n == 0 {
		return
	}
	clear(t.k.slots)
	clear(t.k.long)
	t.k.long = t.k.long[:0]
	t.k.n, t.filed = 0, t.filed[:0]
}
