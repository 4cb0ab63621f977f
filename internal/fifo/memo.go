// Package fifo holds the bounded memo the nodes of one process share for the
// deterministic work they would otherwise each repeat: the erasure transforms
// of entries in flight (replication) and the committed values every store
// holds (aria).
package fifo

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
// present keeps its place in the eviction order.
func (m *Memo[K, V]) Put(k K, v V) {
	if _, ok := m.m[k]; !ok {
		if m.m == nil {
			m.m = make(map[K]V)
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
