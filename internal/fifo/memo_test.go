package fifo

import (
	"math/rand"
	"sync"
	"testing"
)

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

// TestLockedConcurrent: goroutines Get and Put overlapping keys of one Locked
// memo. It never holds more than its bound, a hit reads what was put under
// its key, and Stats counts every Get. Meant for -race.
func TestLockedConcurrent(t *testing.T) {
	const bound, workers, rounds = 16, 8, 2000
	l := NewLocked[int, int](bound)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(2 * bound)
				if v, ok := l.Get(k); !ok {
					l.Put(k, k*k)
				} else if v != k*k {
					t.Errorf("key %d read %d", k, v)
					return
				}
				l.mu.Lock()
				n := l.m.Len()
				l.mu.Unlock()
				if n > bound {
					t.Errorf("memo holds %d values, bound %d", n, bound)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := l.Stats(); hits+misses != workers*rounds || hits == 0 || misses == 0 {
		t.Fatalf("stats %d hits + %d misses, want %d Gets of both kinds", hits, misses, workers*rounds)
	}
	l.Reset()
	if hits, misses := l.Stats(); hits != 0 || misses != 0 || l.m.Len() != 0 {
		t.Fatalf("after Reset: %d hits, %d misses, %d values", hits, misses, l.m.Len())
	}
}
