package statedb

import "maps"

// Snapshot is a read-only view of a Store as it was when Snapshot() was
// called. Taking one copies nothing: while it is open, every mutator first
// records the before-image (old value, or "absent") of each key it touches
// for the first time since the snapshot, so the view costs O(keys written
// since), paid by those writes.
//
// A store has at most one open snapshot. The next Snapshot(), a Restore, or
// Release closes it, and using a closed snapshot panics — a holder that
// outlives its view has a bug, and silently reading the live table would
// hide it. That is the lifetime of a "latest checkpoint" and needs no
// reference counting. Whoever must keep, serialise or ship the state calls
// Store() for an independent copy.
//
// A Snapshot may be read from another goroutine while the store is written;
// its methods take the store's lock.
type Snapshot struct {
	s *Store
}

// image is what a key held when the open snapshot was taken. Presence is
// recorded apart from the value: Put(k, nil) stores a present, empty value.
type image struct {
	val     []byte
	present bool
}

// Snapshot closes the open snapshot, if any, and returns a view of the store
// as of now. It allocates the handle and nothing else once the store's
// before-image map exists.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSnapshot()
	if s.before == nil {
		s.before = make(map[string]image)
	}
	s.snap = &Snapshot{s: s}
	return s.snap
}

// closeSnapshot drops the open snapshot's before-images. Caller holds s.mu.
func (s *Store) closeSnapshot() {
	if s.snap != nil {
		s.snap = nil
		clear(s.before)
	}
}

// remember records key's before-image unless this snapshot already has one.
// Caller holds s.mu for writing and has checked that a snapshot is open.
func (s *Store) remember(key string) {
	if _, seen := s.before[key]; seen {
		return
	}
	v, ok := s.data[key]
	s.before[key] = image{val: v, present: ok}
}

// mustBeOpen panics unless sn is its store's open snapshot. Caller holds the
// store's lock.
func (sn *Snapshot) mustBeOpen() {
	if sn.s.snap != sn {
		panic("statedb: use of a closed Snapshot (superseded by Snapshot, Restore or Release)")
	}
}

// Get returns the value key held when the snapshot was taken and whether it
// existed.
func (sn *Snapshot) Get(key string) ([]byte, bool) {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn.mustBeOpen()
	if img, ok := s.before[key]; ok {
		return img.val, img.present
	}
	v, ok := s.data[key]
	return v, ok
}

// Delta returns how many before-images the snapshot holds: the number of
// distinct keys written since it was taken.
func (sn *Snapshot) Delta() int {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn.mustBeOpen()
	return len(s.before)
}

// Store materialises the snapshot as an independent store (sharing value
// slices, as Clone does): the O(keys) copy, for whoever must serialise or
// ship the state. The snapshot stays open.
func (sn *Snapshot) Store() *Store {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn.mustBeOpen()
	data := maps.Clone(s.data)
	for k, img := range s.before {
		if img.present {
			data[k] = img.val
		} else {
			delete(data, k)
		}
	}
	return &Store{data: data}
}

// Release closes the snapshot; the store's mutators go back to recording
// nothing.
func (sn *Snapshot) Release() {
	s := sn.s
	s.mu.Lock()
	defer s.mu.Unlock()
	sn.mustBeOpen()
	s.closeSnapshot()
}
