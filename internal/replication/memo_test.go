package replication

import "testing"

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
