package statedb

// CountWork runs fn and returns how many keys it hashed and how many table
// probes (Find calls, on any Table) it made. Not for concurrent use.
func CountWork(fn func()) (hashes, probes int) {
	counts = new(struct{ hashes, probes int })
	defer func() { counts = nil }()
	fn()
	return counts.hashes, counts.probes
}

// Records returns how many records the store's table holds, present or not.
func (s *Store) Records() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.t.n
}

// InlineKey is the longest key a record holds itself.
const InlineKey = inlineKey
