// Package statedb is the in-memory hash-table state store the paper's
// prototype uses to hold database state (§VI "Implementation"). It offers a
// point-lookup/update interface for the Aria executor, a deterministic
// digest so tests can assert that every node converged to an identical
// state, and an O(1) copy-on-write Snapshot — a read-only view "as of now"
// whose cost is paid by the writes that follow it, which is what a periodic
// checkpoint holds (snapshot.go).
//
// The hash table comes in two halves (table.go). Keys are hashed once and
// filed in an Index, which gives each a dense process-local id at first
// sight and which the stores of one process share, so a key is copied once
// per process however many stores hold it. Each store keeps its
// own fixed-size Record per id: the value, and the marks that let the
// executor's per-batch reservations and a snapshot's before-images be
// reached through the record the lookup already touched; committed writes
// come back by id. Ids, hashes and record layout depend on the order a
// process happened to file keys in; nothing observable does — Hash, Save,
// ByteSize and state transfer are defined over sorted keys.
package statedb

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Store is a thread-safe in-memory key-value store. The zero value is not
// usable; call New or NewOn.
//
// A store is two halves: the Index that gives each key a dense id, which the
// stores of one process share, and the store's own records, one per id,
// which hold the values. Whatever a store reports depends on its records
// alone: a key another store on the same index filed is one this store has
// never held, until a write to it commits here.
//
// Values are immutable once stored: whoever hands a slice to Put, Apply,
// ApplyBatch or Commit gives it up, and nobody writes into a slice obtained
// from Get or a Reader. That is what lets Clone and Restore share value
// slices between stores instead of copying them, and the executor store one
// copy of a value for every store of the process (aria.ValueMemo): the bytes
// Get returns may be held by other nodes' stores too. Keys are the opposite: a
// key belongs to the caller, and the index copies it the first time a store
// of the process stores something under it.
type Store struct {
	mu   sync.RWMutex
	ix   *Index
	recs records
	live int // records that are present: Len()

	// snap is the open Snapshot, nil when there is none; before holds what
	// each record written since snap was taken held at that moment, found
	// through Record.image. The slice outlives the snapshots (emptied, not
	// reallocated, when one closes), and is empty whenever snap is nil.
	snap   *Snapshot
	before []image
}

// New returns an empty store on an index of its own.
func New() *Store { return NewOn(NewIndex()) }

// NewOn returns an empty store whose keys are filed in ix, which it shares
// with whatever other stores are on it.
func NewOn(ix *Index) *Store { return &Store{ix: ix} }

// Index returns the index the store's keys are filed in.
func (s *Store) Index() *Index { return s.ix }

// Records returns how many records the store keeps, present or not: the ids
// it has covered, never more than its index's Len.
func (s *Store) Records() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs.n
}

// Get returns the value for key and whether it exists.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id, _ := s.findString(key); id >= 0 {
		return s.recs.at(id).Value()
	}
	return nil, false
}

// findString returns the id of key's record and key's hash, the id -1 if the
// store has never held key. Caller holds s.mu.
func (s *Store) findString(key string) (id int32, h uint32) {
	s.ix.mu.RLock()
	id, h = s.ix.k.findString(key)
	s.ix.mu.RUnlock()
	return s.held(id), h
}

// held returns id if the store has a record for it, else -1: an id another
// store filed is one this store has never held.
func (s *Store) held(id int32) int32 {
	if int(id) >= s.recs.n {
		return -1
	}
	return id
}

// file returns key's id, filing key in the index if no store of the process
// has, and gives the store a record for it. Caller holds s.mu for writing.
func (s *Store) file(key []byte, h uint32) int32 {
	id := s.ix.file(key, h)
	s.recs.cover(id)
	return id
}

// Reader is a read-locked view of a Store, valid only inside the View call
// that produced it.
type Reader struct{ s *Store }

// Get returns the value for key and whether it exists.
func (r Reader) Get(key string) ([]byte, bool) {
	if id, _ := r.s.ix.k.findString(key); r.s.held(id) >= 0 {
		return r.s.recs.at(id).Value()
	}
	return nil, false
}

// Find returns the id of key's record, or -1 if the store has none: it has
// never held key, whatever other stores on its index hold. h is
// HashKey(key). A record may be absent — the key was deleted, or the store
// gave records to the ids around it — so ask Record(id).Value() whether the
// key is present. The id names the record until the store's contents are
// replaced (Restore).
func (r Reader) Find(key []byte, h uint32) int32 { return r.s.held(r.s.ix.k.find(key, h)) }

// Record returns the record of an id Find returned.
func (r Reader) Record(id int32) *Record { return r.s.recs.at(id) }

// Key returns the key of an id Find returned; the bytes are the index's.
func (r Reader) Key(id int32) []byte { return r.s.ix.k.key(id) }

// View runs fn over a consistent view of the store, holding the read lock —
// the store's, and its index's — once for the whole call instead of once per
// Get. fn must not write to the store.
func (s *Store) View(fn func(Reader)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.ix.mu.RLock()
	defer s.ix.mu.RUnlock()
	fn(Reader{s})
}

// Put stores value under key. The store takes ownership of value. A nil
// value is stored as a present, empty value (unlike Apply and ApplyBatch,
// where nil deletes).
func (s *Store) Put(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write(key, value, true)
}

// Delete removes key.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.write(key, nil, false)
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Apply installs vals[i] under keys[i] for every i, atomically and in order.
// A nil value deletes.
func (s *Store) Apply(keys []string, vals [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		s.write(k, vals[i], vals[i] != nil)
	}
}

// ApplyBatch installs a set of writes atomically. A nil value deletes.
func (s *Store) ApplyBatch(writes map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range writes {
		s.write(k, v, v != nil)
	}
}

// Commit is Apply for the executor, which has looked every key up already:
// it installs vals[i] in the record ids[i] for every i, atomically and in
// order, a nil value deleting. An id is what Reader.Find returned, or ^i for
// record i of fresh, the executor's table of keys Find did not know; such a
// key enters the store — filed in the index under the hash fresh filed it
// under, unless another store of the process filed it first — when its first
// non-nil value is committed, and not before.
func (s *Store) Commit(ids []int32, vals [][]byte, fresh *Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		v := vals[i]
		if id < 0 {
			fr := fresh.Record(^id)
			if fr.image == 0 {
				if v == nil {
					continue
				}
				fr.image = uint32(s.file(fresh.Key(^id), fresh.k.rec(^id).hash)) + 1
			}
			id = int32(fr.image - 1)
		}
		s.set(id, v, v != nil)
	}
}

// write sets key to (val, present). Caller holds s.mu for writing.
func (s *Store) write(key string, val []byte, present bool) {
	id, h := s.findString(key)
	if id < 0 {
		if !present {
			return
		}
		id = s.file([]byte(key), h)
	}
	s.set(id, val, present)
}

// set is the one place a record's value changes: it keeps the open
// snapshot's before-image and the live count. Caller holds s.mu for writing.
func (s *Store) set(id int32, val []byte, present bool) {
	r := s.recs.at(id)
	if !present && !r.present {
		return // deleting what is not there writes nothing, record or no record
	}
	if s.snap != nil {
		s.remember(id, r)
	}
	if present != r.present {
		if present {
			s.live++
		} else {
			s.live--
		}
	}
	r.val, r.present = val, present
}

// each calls fn with the key and value of every present record, in
// ascending key order — the order Hash and Save are defined over. Caller
// holds s.mu; the index is not locked while fn runs.
func (s *Store) each(fn func(key, val []byte) error) error {
	ids := make([]int32, 0, s.live)
	for id := int32(0); int(id) < s.recs.n; id++ {
		if s.recs.at(id).present {
			ids = append(ids, id)
		}
	}
	k := s.ix.filed()
	slices.SortFunc(ids, func(a, b int32) int { return bytes.Compare(k.key(a), k.key(b)) })
	for _, id := range ids {
		if err := fn(k.key(id), s.recs.at(id).val); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns a deterministic digest of the full state: the SHA-256 over
// (key, value) pairs in sorted key order. Two stores with identical contents
// produce identical hashes on every node.
func (s *Store) Hash() [32]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := sha256.New()
	var lenBuf [4]byte
	s.each(func(k, v []byte) error {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(k)))
		h.Write(lenBuf[:])
		h.Write(k)
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(v)))
		h.Write(lenBuf[:])
		h.Write(v)
		return nil
	})
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Clone returns an independent store with the same contents on the same
// index: its own records, sharing the (immutable) value slices — an O(keys)
// copy. A checkpoint that leaves the node (state transfer) and tests that
// fork identical initial states use it; a checkpoint the node keeps takes a
// Snapshot instead.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{ix: s.ix, recs: s.recs.clone(), live: s.live}
}

// Restore replaces this store's contents with from's, sharing value slices
// as Clone does; the receiver pointer stays valid, so holders (e.g. an
// execution engine) see the transferred state without rewiring. Each of
// from's keys is filed in this store's index, which finds it already there
// when the two share one. It closes the open Snapshot, if any: the installed
// state is not the one the view described. Used by checkpointed node rejoin.
func (s *Store) Restore(from *Store) {
	c := from.Clone()
	keys := c.ix.filed()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSnapshot()
	s.recs, s.live = records{}, 0
	for id := int32(0); int(id) < c.recs.n; id++ {
		if r := c.recs.at(id); r.present {
			s.set(s.file(keys.key(id), keys.rec(id).hash), r.val, true)
		}
	}
}

// ByteSize returns the summed length of all keys and values — the transfer
// cost model for state snapshots.
func (s *Store) ByteSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := s.ix.filed()
	n := 0
	for id := int32(0); int(id) < s.recs.n; id++ {
		if r := s.recs.at(id); r.present {
			n += len(keys.key(id)) + len(r.val)
		}
	}
	return n
}

// Save writes a snapshot of the store to w in deterministic (sorted-key)
// order, prefixed with a magic header and the record count. Together with
// ledger.Save it forms a restart/state-transfer artifact.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("massdb1\x00"); err != nil {
		return fmt.Errorf("statedb: writing header: %w", err)
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(s.live))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	err := s.each(func(k, v []byte) error {
		for _, field := range [2][]byte{k, v} {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(field)))
			if _, err := bw.Write(lenBuf[:]); err != nil {
				return err
			}
			if _, err := bw.Write(field); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save. The input is untrusted (a state
// transfer is decoded before any handler decides whether the node asked for
// it): memory is allocated as bytes arrive, never on the say-so of a length
// field, and keys must be strictly ascending, which is what Save writes.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("statedb: reading header: %w", err)
	}
	if string(head) != "massdb1\x00" {
		return nil, fmt.Errorf("statedb: bad magic")
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	s := New()
	var prev []byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("statedb: record %d key length: %w", i, err)
		}
		klen := int(binary.BigEndian.Uint32(lenBuf[:]))
		if klen > 1<<20 {
			return nil, fmt.Errorf("statedb: record %d key length %d implausible", i, klen)
		}
		key, err := readBytes(br, klen)
		if err != nil {
			return nil, fmt.Errorf("statedb: record %d key: %w", i, err)
		}
		if i > 0 && bytes.Compare(key, prev) <= 0 {
			return nil, fmt.Errorf("statedb: record %d key %q not above the one before", i, key)
		}
		prev = key
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("statedb: record %d value length: %w", i, err)
		}
		vlen := int(binary.BigEndian.Uint32(lenBuf[:]))
		if vlen > 1<<28 {
			return nil, fmt.Errorf("statedb: record %d value length %d implausible", i, vlen)
		}
		val, err := readBytes(br, vlen)
		if err != nil {
			return nil, fmt.Errorf("statedb: record %d value: %w", i, err)
		}
		s.set(s.file(key, HashKey(key)), val, true)
	}
	return s, nil
}

// readBytes reads exactly n bytes. Up to loadChunk it allocates at once;
// beyond that the slice doubles as bytes arrive, so a declared length never
// costs more than about twice the input that backs it.
func readBytes(br *bufio.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, loadChunk))
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	for len(b) < n {
		have := len(b)
		b = append(b, make([]byte, min(have, n-have))...)
		if _, err := io.ReadFull(br, b[have:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// loadChunk is the most Load allocates for one field before any of its bytes
// have arrived.
const loadChunk = 4096
