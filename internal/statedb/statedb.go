// Package statedb is the in-memory hash-table state store the paper's
// prototype uses to hold database state (§VI "Implementation"). It offers a
// point-lookup/update interface for the Aria executor, a deterministic
// digest so tests can assert that every node converged to an identical
// state, and an O(1) copy-on-write Snapshot — a read-only view "as of now"
// whose cost is paid by the writes that follow it, which is what a periodic
// checkpoint holds (snapshot.go).
//
// The hash table is the store's own (table.go): keys are hashed once, get a
// dense node-local id at first sight, and sit inline in fixed-size records
// beside their value, so the executor's per-batch reservations and a
// snapshot's before-images are reached through the record the lookup already
// touched, and committed writes come back by id. Ids, hashes and record
// layout depend on the order a node happened to see keys in; nothing
// observable does — Hash, Save, ByteSize and state transfer are defined over
// sorted keys.
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
// usable; call New.
//
// Values are immutable once stored: whoever hands a slice to Put, Apply,
// ApplyBatch or Commit gives it up, and nobody writes into a slice obtained
// from Get or a Reader. That is what lets Clone and Restore share value
// slices between stores instead of copying them. Keys are the opposite: a
// key belongs to the caller, and the store copies it the first time it
// stores something under it.
type Store struct {
	mu   sync.RWMutex
	t    Table
	live int // records that are present: Len()

	// snap is the open Snapshot, nil when there is none; before holds what
	// each record written since snap was taken held at that moment, found
	// through Record.image. The slice outlives the snapshots (emptied, not
	// reallocated, when one closes), and is empty whenever snap is nil.
	snap   *Snapshot
	before []image
}

// New returns an empty store.
func New() *Store {
	return &Store{}
}

// Get returns the value for key and whether it exists.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Reader{s}.Get(key)
}

// Reader is a read-locked view of a Store, valid only inside the View call
// that produced it.
type Reader struct{ s *Store }

// Get returns the value for key and whether it exists.
func (r Reader) Get(key string) ([]byte, bool) {
	if id, _ := r.s.t.findString(key); id >= 0 {
		return r.s.t.Record(id).Value()
	}
	return nil, false
}

// Find returns the id of key's record, or -1 if the store has never held
// key; h is HashKey(key). A record outlives the key's deletion, so ask
// Record(id).Value() whether the key is present. The id names the record
// until the store's contents are replaced (Restore).
func (r Reader) Find(key []byte, h uint32) int32 { return r.s.t.Find(key, h) }

// Record returns the record of an id Find returned.
func (r Reader) Record(id int32) *Record { return r.s.t.Record(id) }

// Key returns the key of an id Find returned; the bytes are the store's.
func (r Reader) Key(id int32) []byte { return r.s.t.Key(id) }

// View runs fn over a consistent view of the store, holding the read lock
// once for the whole call instead of once per Get. fn must not write to the
// store.
func (s *Store) View(fn func(Reader)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
// key enters the store — with the hash fresh filed it under — when its first
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
				fr.image = uint32(s.t.Insert(fresh.Key(^id), fr.hash)) + 1
			}
			id = int32(fr.image - 1)
		}
		s.set(id, v, v != nil)
	}
}

// write sets key to (val, present). Caller holds s.mu for writing.
func (s *Store) write(key string, val []byte, present bool) {
	id, h := s.t.findString(key)
	if id < 0 {
		if !present {
			return
		}
		id = s.t.Insert([]byte(key), h)
	}
	s.set(id, val, present)
}

// set is the one place a record's value changes: it keeps the open
// snapshot's before-image and the live count. Caller holds s.mu for writing.
func (s *Store) set(id int32, val []byte, present bool) {
	r := s.t.Record(id)
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

// sorted returns the ids of the present keys in ascending key order, the
// order Hash and Save are defined over. Caller holds s.mu.
func (s *Store) sorted() []int32 {
	ids := make([]int32, 0, s.live)
	for id := int32(0); int(id) < s.t.n; id++ {
		if s.t.Record(id).present {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int32) int { return bytes.Compare(s.t.Key(a), s.t.Key(b)) })
	return ids
}

// Hash returns a deterministic digest of the full state: the SHA-256 over
// (key, value) pairs in sorted key order. Two stores with identical contents
// produce identical hashes on every node.
func (s *Store) Hash() [32]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := sha256.New()
	var lenBuf [4]byte
	for _, id := range s.sorted() {
		k, v := s.t.Key(id), s.t.Record(id).val
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(k)))
		h.Write(lenBuf[:])
		h.Write(k)
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(v)))
		h.Write(lenBuf[:])
		h.Write(v)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Clone returns an independent store with the same contents: its own table,
// sharing the (immutable) value slices — an O(keys) copy. A checkpoint that
// leaves the node (state transfer) and tests that fork identical initial
// states use it; a checkpoint the node keeps takes a Snapshot instead.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Store{t: s.t.clone(), live: s.live}
}

// Restore replaces this store's contents with from's, sharing value slices
// as Clone does; the receiver pointer stays valid, so holders (e.g. an
// execution engine) see the transferred state without rewiring. It closes
// the open Snapshot, if any: the installed state is not the one the view
// described. Used by checkpointed node rejoin.
func (s *Store) Restore(from *Store) {
	c := from.Clone()
	s.mu.Lock()
	s.closeSnapshot()
	s.t, s.live = c.t, c.live
	s.mu.Unlock()
}

// ByteSize returns the summed length of all keys and values — the transfer
// cost model for state snapshots.
func (s *Store) ByteSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for id := int32(0); int(id) < s.t.n; id++ {
		if r := s.t.Record(id); r.present {
			n += len(s.t.Key(id)) + len(r.val)
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
	ids := s.sorted()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(ids)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	for _, id := range ids {
		for _, field := range [2][]byte{s.t.Key(id), s.t.Record(id).val} {
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(field)))
			if _, err := bw.Write(lenBuf[:]); err != nil {
				return err
			}
			if _, err := bw.Write(field); err != nil {
				return err
			}
		}
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
		s.set(s.t.Insert(key, HashKey(key)), val, true) // ascending, so not in the table
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
