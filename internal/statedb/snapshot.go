package statedb

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

// image is what record id held when the open snapshot was taken. Presence is
// recorded apart from the value: Put(k, nil) stores a present, empty value.
type image struct {
	id      int32
	val     []byte
	present bool
}

// Snapshot closes the open snapshot, if any, and returns a view of the store
// as of now. It allocates the handle and nothing else.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSnapshot()
	s.snap = &Snapshot{s: s}
	return s.snap
}

// closeSnapshot drops the open snapshot's before-images. Caller holds s.mu.
func (s *Store) closeSnapshot() {
	if s.snap != nil {
		s.snap = nil
		clear(s.before) // let go of the values
		s.before = s.before[:0]
	}
}

// imageOf returns the open snapshot's before-image of record id, nil if it
// has none. A record's mark is only a hint — it may be left over from a
// closed snapshot — so it counts only if the image it points at points back.
func (s *Store) imageOf(id int32, r *Record) *image {
	if i := int(r.image); i < len(s.before) && s.before[i].id == id {
		return &s.before[i]
	}
	return nil
}

// remember records the before-image of record id (r) unless this snapshot
// already has one. Caller holds s.mu for writing and has checked that a
// snapshot is open.
func (s *Store) remember(id int32, r *Record) {
	if s.imageOf(id, r) == nil {
		r.image = uint32(len(s.before))
		s.before = append(s.before, image{id: id, val: r.val, present: r.present})
	}
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
	id, _ := s.findString(key)
	if id < 0 {
		return nil, false // never held, so not held then
	}
	r := s.recs.at(id)
	if img := s.imageOf(id, r); img != nil {
		return img.val, img.present
	}
	return r.Value()
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

// Store materialises the snapshot as an independent store on the same index
// (sharing value slices, as Clone does): the O(records) copy, for whoever must serialise or
// ship the state. The snapshot stays open.
func (sn *Snapshot) Store() *Store {
	s := sn.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	sn.mustBeOpen()
	m := &Store{ix: s.ix, recs: s.recs.clone(), live: s.live}
	for _, img := range s.before {
		m.set(img.id, img.val, img.present)
	}
	return m
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
