package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// Paper geometry: plan.New over group sizes 7 and 4 yields 28 total shards,
// 13 data + 15 parity (MassBFT §IV-B, Algorithm 1).
const (
	paperData   = 13
	paperParity = 15
)

var hotpathGeometries = [][2]int{
	{1, 0}, {1, 3}, {2, 2}, {3, 5}, {paperData, paperParity}, {20, 11},
}

func randPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	for i := 0; i < n; i += 11 {
		b[i] = 0
	}
	return b
}

// TestSplitMatchesRef pins the fast Split to the pre-overhaul reference
// across geometries and sizes that exercise padding and kernel tails.
func TestSplitMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range hotpathGeometries {
		e, err := New(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 7, 64, 1023, 4096, 10007} {
			data := randPayload(rng, n)
			want, err := RefSplit(g[0], g[1], data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Split(data)
			if err != nil {
				t.Fatal(err)
			}
			assertShardsEqual(t, want, got, "Split", g, n)
		}
	}
}

// TestReconstructMatchesRef pins cached-inverse reconstruction (full and
// data-only) to the pre-overhaul reference across random loss patterns.
func TestReconstructMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, g := range hotpathGeometries {
		e, err := New(g[0], g[1])
		if err != nil {
			t.Fatal(err)
		}
		total := g[0] + g[1]
		for trial := 0; trial < 8; trial++ {
			data := randPayload(rng, 777+trial)
			full, err := e.Split(data)
			if err != nil {
				t.Fatal(err)
			}
			// Drop up to parityShards random shards.
			drop := rng.Perm(total)[:rng.Intn(g[1]+1)]
			lossy := func() [][]byte {
				s := make([][]byte, total)
				copy(s, full)
				for _, d := range drop {
					s[d] = nil
				}
				return s
			}

			want := lossy()
			if err := RefReconstruct(g[0], g[1], want); err != nil {
				t.Fatal(err)
			}
			got := lossy()
			if err := e.Reconstruct(got); err != nil {
				t.Fatal(err)
			}
			assertShardsEqual(t, want, got, "Reconstruct", g, trial)

			dataOnly := lossy()
			if err := e.ReconstructData(dataOnly); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g[0]; i++ {
				if !bytes.Equal(dataOnly[i], want[i]) {
					t.Fatalf("ReconstructData %v trial %d: data shard %d diverges", g, trial, i)
				}
			}
		}
	}
}

// TestCachedEncoderSharedAndConcurrent checks the geometry cache returns one
// shared encoder and that concurrent Split/Reconstruct through it agree with
// the serial result (the decode-matrix cache is internally locked).
func TestCachedEncoderSharedAndConcurrent(t *testing.T) {
	a, err := Cached(paperData, paperParity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(paperData, paperParity)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Cached returned distinct encoders for one geometry")
	}
	if _, err := Cached(0, 3); err == nil {
		t.Fatal("Cached accepted invalid geometry")
	}

	rng := rand.New(rand.NewSource(14))
	data := randPayload(rng, 9001)
	want, err := a.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				shards := make([][]byte, len(want))
				copy(shards, want)
				shards[2], shards[9], shards[20] = nil, nil, nil
				if err := a.ReconstructData(shards); err != nil {
					done <- err
					return
				}
				for j := 0; j < paperData; j++ {
					if !bytes.Equal(shards[j], want[j]) {
						done <- errShardMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errShardMismatch = errString("reconstructed shard mismatch")

type errString string

func (e errString) Error() string { return string(e) }

func assertShardsEqual(t *testing.T, want, got [][]byte, op string, g [2]int, id int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s %v #%d: %d shards, want %d", op, g, id, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("%s %v #%d: shard %d diverges from reference", op, g, id, i)
		}
	}
}

// --- hot-path benchmarks -------------------------------------------------
//
// BenchmarkSplit / BenchmarkReconstruct measure the per-entry codec
// operations as the replication layer performs them at the paper geometry
// (28 shards from group sizes 7/4): encoder acquisition plus encode, and
// encoder acquisition plus data rebuild plus join. The *Ref variants are the
// pre-overhaul equivalents of exactly those operations (ref_test.go).

// benchPayload approximates one consensus batch: ~40 smallbank transactions
// (25 bytes each) at the demo configuration's MaxBatch of 50.
const benchPayload = 1024

func benchData(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	return randPayload(rng, n)
}

func BenchmarkSplit(b *testing.B) {
	data := benchData(benchPayload)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := Cached(paperData, paperParity)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Split(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitRef(b *testing.B) {
	data := benchData(benchPayload)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RefSplit(paperData, paperParity, data); err != nil {
			b.Fatal(err)
		}
	}
}

// reconstructFixture returns a shard set missing 7 data + 8 parity shards:
// the collector rebuild case, where exactly dataShards chunks arrived.
func reconstructFixture(b *testing.B) ([][]byte, []int) {
	b.Helper()
	e, err := New(paperData, paperParity)
	if err != nil {
		b.Fatal(err)
	}
	full, err := e.Split(benchData(benchPayload))
	if err != nil {
		b.Fatal(err)
	}
	var missing []int
	for i := range full {
		if i%2 == 1 {
			missing = append(missing, i)
		}
	}
	missing = append(missing, 26)
	return full, missing
}

func lossyCopy(full [][]byte, missing []int) [][]byte {
	s := make([][]byte, len(full))
	copy(s, full)
	for _, m := range missing {
		s[m] = nil
	}
	return s
}

func BenchmarkReconstruct(b *testing.B) {
	full, missing := reconstructFixture(b)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := Cached(paperData, paperParity)
		if err != nil {
			b.Fatal(err)
		}
		shards := lossyCopy(full, missing)
		if err := e.ReconstructData(shards); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Join(shards, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructRef(b *testing.B) {
	full, missing := reconstructFixture(b)
	// Join only concatenates data shards; hoist its encoder so the ref side
	// pays exactly one matrix construction per entry (inside RefReconstruct),
	// faithful to the pre-overhaul rebuild path.
	joiner, err := New(paperData, paperParity)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := lossyCopy(full, missing)
		if err := RefReconstruct(paperData, paperParity, shards); err != nil {
			b.Fatal(err)
		}
		if _, err := joiner.Join(shards, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}
