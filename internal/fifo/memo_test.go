package fifo

import "testing"

func TestMemoEvictsOldestFirst(t *testing.T) {
	m := &Memo[int, string]{max: 3}
	if m.Len() != 0 {
		t.Fatal("new memo not empty")
	}
	for k := 1; k <= 3; k++ {
		m.Put(k, "v")
	}
	m.Put(1, "again") // a present key keeps its place: 1 is still the oldest
	m.Put(4, "v")
	if _, ok := m.Get(1); ok {
		t.Fatal("oldest key survived a put into a full memo")
	}
	for k := 2; k <= 4; k++ {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("key %d evicted out of order", k)
		}
	}
	m.Put(5, "v")
	m.Put(6, "v")
	if _, ok := m.Get(4); !ok || m.Len() != 3 {
		t.Fatalf("after two more puts: len %d, newest-but-two present %v", m.Len(), ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("eviction did not wrap around in insertion order")
	}
}
