// Package statedb is the in-memory hash-table state store the paper's
// prototype uses to hold database state (§VI "Implementation"). It offers a
// point-lookup/update interface for the Aria executor, a deterministic
// digest so tests can assert that every node converged to an identical
// state, and an O(1) copy-on-write Snapshot — a read-only view "as of now"
// whose cost is paid by the writes that follow it, which is what a periodic
// checkpoint holds (snapshot.go).
package statedb

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync"
)

// Store is a thread-safe in-memory key-value store. The zero value is not
// usable; call New.
//
// Values are immutable once stored: whoever hands a slice to Put, Apply or
// ApplyBatch gives it up, and nobody writes into a slice obtained from Get or
// a Reader. That is what lets Clone and Restore share value slices between
// stores instead of copying them.
type Store struct {
	mu   sync.RWMutex
	data map[string][]byte

	// snap is the open Snapshot, nil when there is none; before holds what
	// each key written since snap was taken held at that moment. The map
	// outlives the snapshots (cleared, not reallocated, when one closes), and
	// is empty whenever snap is nil.
	snap   *Snapshot
	before map[string]image
}

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string][]byte)}
}

// Get returns the value for key and whether it exists.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Reader is a read-locked view of a Store, valid only inside the View call
// that produced it.
type Reader struct{ s *Store }

// Get returns the value for key and whether it exists.
func (r Reader) Get(key string) ([]byte, bool) {
	v, ok := r.s.data[key]
	return v, ok
}

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
	if s.snap != nil {
		s.remember(key)
	}
	s.data[key] = value
}

// Delete removes key.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil {
		s.remember(key)
	}
	delete(s.data, key)
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Apply installs vals[i] under keys[i] for every i, atomically and in order.
// A nil value deletes.
func (s *Store) Apply(keys []string, vals [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil {
		for _, k := range keys {
			s.remember(k)
		}
	}
	for i, k := range keys {
		if v := vals[i]; v == nil {
			delete(s.data, k)
		} else {
			s.data[k] = v
		}
	}
}

// ApplyBatch installs a set of writes atomically. A nil value deletes.
func (s *Store) ApplyBatch(writes map[string][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil {
		for k := range writes {
			s.remember(k)
		}
	}
	for k, v := range writes {
		if v == nil {
			delete(s.data, k)
		} else {
			s.data[k] = v
		}
	}
}

// Hash returns a deterministic digest of the full state: the SHA-256 over
// (key, value) pairs in sorted key order. Two stores with identical contents
// produce identical hashes on every node.
func (s *Store) Hash() [32]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var lenBuf [4]byte
	for _, k := range keys {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(k)))
		h.Write(lenBuf[:])
		h.Write([]byte(k))
		v := s.data[k]
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(v)))
		h.Write(lenBuf[:])
		h.Write(v)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Clone returns an independent store with the same contents: its own map,
// sharing the (immutable) value slices — an O(keys) copy. A checkpoint that
// leaves the node (state transfer) and tests that fork identical initial
// states use it; a checkpoint the node keeps takes a Snapshot instead.
func (s *Store) Clone() *Store {
	return &Store{data: s.copyData()}
}

// Restore replaces this store's contents with from's, sharing value slices
// as Clone does; the receiver pointer stays valid, so holders (e.g. an
// execution engine) see the transferred state without rewiring. It closes
// the open Snapshot, if any: the installed state is not the one the view
// described. Used by checkpointed node rejoin.
func (s *Store) Restore(from *Store) {
	data := from.copyData()
	s.mu.Lock()
	s.closeSnapshot()
	s.data = data
	s.mu.Unlock()
}

func (s *Store) copyData() map[string][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return maps.Clone(s.data)
}

// ByteSize returns the summed length of all keys and values — the transfer
// cost model for state snapshots.
func (s *Store) ByteSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for k, v := range s.data {
		n += len(k) + len(v)
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
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(keys)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	for _, k := range keys {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(k)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		v := s.data[k]
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(v)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.Write(v); err != nil {
			return err
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
	prev := ""
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("statedb: record %d key length: %w", i, err)
		}
		klen := int(binary.BigEndian.Uint32(lenBuf[:]))
		if klen > 1<<20 {
			return nil, fmt.Errorf("statedb: record %d key length %d implausible", i, klen)
		}
		kb, err := readBytes(br, klen)
		if err != nil {
			return nil, fmt.Errorf("statedb: record %d key: %w", i, err)
		}
		key := string(kb)
		if i > 0 && key <= prev {
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
		s.data[key] = val
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
