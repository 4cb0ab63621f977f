package replication

import "massbft/internal/keys"

// Memo is a small bounded memo of a deterministic transform the nodes of one
// process would otherwise repeat within milliseconds of each other. It keeps
// the newest max values and evicts the oldest, so it holds what is in flight,
// and which lookups hit depends on insertion order alone (equal seed, equal
// host-side work). A miss costs the transform, never a wrong answer. Not safe
// for concurrent use: the nodes sharing one take turns on one goroutine.
type Memo[K comparable, V any] struct {
	max  int // the bound; m and fifo are made at the first Put
	m    map[K]V
	fifo []K // insertion order; once full, fifo[next] is the oldest
	next int
}

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
			m.m, m.fifo = make(map[K]V, m.max), make([]K, 0, m.max)
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

// EncodeKey names an encoding: the digest of the entry bytes and the group
// sizes the plan derives from.
type EncodeKey struct {
	Digest           keys.Digest
	Sender, Receiver int
}

// EncodeMemo holds the encodings the members of a sender group derive alike
// from the entry they all certified, and that its chunk repairs re-serve.
type EncodeMemo = Memo[EncodeKey, *Encoded]

// RebuildMemo holds rebuild outcomes by bucket: the root commits to the exact
// chunk set, so every receiver of an origin's entry decodes the same bytes.
type RebuildMemo = Memo[bucketKey, *outcome]

// NewEncodeMemo returns a process's shared encoding memo holding up to max
// encodings.
func NewEncodeMemo(max int) *EncodeMemo { return &EncodeMemo{max: max} }

// NewRebuildMemo returns a process's shared rebuild memo holding up to max
// outcomes.
func NewRebuildMemo(max int) *RebuildMemo { return &RebuildMemo{max: max} }
