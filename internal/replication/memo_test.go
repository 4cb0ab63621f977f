package replication

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

// TestRebuildMemoDecodesABucketOnce: two receivers sharing a memo decode the
// bucket once between them, and both get the certified bytes.
func TestRebuildMemoDecodesABucketOnce(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo := NewRebuildMemo(4)
	misses := 0
	var got []Rebuilt
	for r := 0; r < 2; r++ {
		c := collectorFor(f, &got)
		c.SetMemo(memo)
		c.SetMetricsHook(func(name string) {
			if name == "rebuild-memo-misses" {
				misses++
			}
		})
		for i := 0; i < 4; i++ {
			msgs := f.singles(t, f.encoded, i, f.cert)
			for k := range msgs {
				c.AddBatch(&msgs[k])
			}
		}
	}
	if len(got) != 2 || misses != 1 || memo.Len() != 1 {
		t.Fatalf("delivered %d, memo misses %d, memo len %d; want 2, 1, 1", len(got), misses, memo.Len())
	}
	if &got[0].Enc[0] != &got[1].Enc[0] {
		t.Fatal("the second receiver did not share the memoized bytes")
	}
}
