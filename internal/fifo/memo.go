// Package fifo holds the one bounded memo of the tree, which keeps the newest
// max values. The nodes of one simulated process share a Memo on one
// goroutine (erasure transforms, decoded entries, committed values); Locked
// is the form goroutines share (key verdicts, erasure geometries and inverses).
package fifo

import "sync"

// Memo is a small bounded memo of a deterministic transform the nodes of one
// process would otherwise repeat within milliseconds of each other. It keeps
// the newest max values and evicts the oldest, so it holds what is in flight,
// and which lookups hit depends on insertion order alone (equal seed, equal
// host-side work). A miss costs the transform, never a wrong answer. Not safe
// for concurrent use: the nodes sharing one take turns on one goroutine.
type Memo[K comparable, V any] struct {
	max  int // the bound; m and fifo grow to it as values are put
	m    map[K]V
	fifo []K // insertion order; once full, fifo[next] is the oldest
	next int
}

// NewMemo returns an empty memo holding up to max values.
func NewMemo[K comparable, V any](max int) *Memo[K, V] { return &Memo[K, V]{max: max} }

// Get returns the value memoized under k.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	v, ok := m.m[k]
	return v, ok
}

// Put memoizes v under k, evicting the oldest value when full. A key already
// present keeps its place in the eviction order. The first Put sizes the memo
// for a quarter of its bound, so filling it takes at most two doublings.
func (m *Memo[K, V]) Put(k K, v V) {
	if _, ok := m.m[k]; !ok {
		if m.m == nil {
			m.m, m.fifo = make(map[K]V, m.max/4), make([]K, 0, m.max/4)
		}
		if len(m.fifo) < m.max {
			m.fifo = append(m.fifo, k)
		} else {
			delete(m.m, m.fifo[m.next])
			m.fifo[m.next], m.next = k, (m.next+1)%m.max
		}
	}
	m.m[k] = v
}

// Len returns how many values the memo holds.
func (m *Memo[K, V]) Len() int { return len(m.m) }

// Locked is a Memo behind a mutex, safe for concurrent use, that counts its
// hits and misses. The lock is not held between a missed Get and its Put, so
// goroutines that miss the same key at once each compute it.
type Locked[K comparable, V any] struct {
	mu           sync.Mutex
	m            Memo[K, V]
	hits, misses uint64
}

// NewLocked returns an empty locked memo holding up to max values.
func NewLocked[K comparable, V any](max int) *Locked[K, V] {
	return &Locked[K, V]{m: Memo[K, V]{max: max}}
}

// Get returns the value memoized under k, counting a hit or a miss.
func (l *Locked[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m.Get(k)
	if ok {
		l.hits++
	} else {
		l.misses++
	}
	return v, ok
}

// Put memoizes v under k, as Memo.Put.
func (l *Locked[K, V]) Put(k K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m.Put(k, v)
}

// Stats returns how many Gets hit and missed since the last Reset.
func (l *Locked[K, V]) Stats() (hits, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

// Reset empties the memo and zeroes its counts.
func (l *Locked[K, V]) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m, l.hits, l.misses = Memo[K, V]{max: l.m.max}, 0, 0
}
