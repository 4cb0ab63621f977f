package erasure

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewInvalidGeometry(t *testing.T) {
	cases := []struct{ data, parity int }{
		{0, 3}, {-1, 3}, {4, -1}, {200, 100},
	}
	for _, c := range cases {
		if _, err := New(c.data, c.parity); err == nil {
			t.Fatalf("New(%d,%d): expected error", c.data, c.parity)
		}
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	enc, err := New(13, 15) // the Fig 5 case-study geometry (28 total)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 12, 13, 14, 100, 1000, 12345} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		shards, err := enc.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 28 {
			t.Fatalf("got %d shards, want 28", len(shards))
		}
		got, err := enc.Join(shards, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestSplitEmptyData(t *testing.T) {
	enc, _ := New(4, 2)
	if _, err := enc.Split(nil); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	enc, err := New(13, 15)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 999)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	orig, _ := enc.Split(data)

	for trial := 0; trial < 50; trial++ {
		shards := make([][]byte, len(orig))
		// Keep exactly 13 random shards; erase the other 15.
		perm := rng.Perm(len(orig))
		for _, i := range perm[:13] {
			shards[i] = append([]byte(nil), orig[i]...)
		}
		if err := enc.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range orig {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("trial %d: shard %d mismatch after reconstruct", trial, i)
			}
		}
		got, err := enc.Join(shards, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: data mismatch", trial)
		}
	}
}

func TestReconstructTooFew(t *testing.T) {
	enc, _ := New(5, 3)
	data := []byte("hello erasure coding world")
	orig, _ := enc.Split(data)
	shards := make([][]byte, len(orig))
	for i := 0; i < 4; i++ { // only 4 of 5 needed
		shards[i] = orig[i]
	}
	if err := enc.Reconstruct(shards); err != ErrTooFewShards {
		t.Fatalf("got %v, want ErrTooFewShards", err)
	}
}

func TestReconstructSizeMismatch(t *testing.T) {
	enc, _ := New(3, 2)
	orig, _ := enc.Split(bytes.Repeat([]byte{7}, 30))
	orig[1] = orig[1][:5]
	if err := enc.Reconstruct(orig); err != ErrShardSizeMismatch {
		t.Fatalf("got %v, want ErrShardSizeMismatch", err)
	}
}

func TestReconstructWrongShardSlice(t *testing.T) {
	enc, _ := New(3, 2)
	if err := enc.Reconstruct(make([][]byte, 4)); err == nil {
		t.Fatal("expected error for wrong shard count")
	}
}

func TestJoinMissingDataShard(t *testing.T) {
	enc, _ := New(3, 2)
	orig, _ := enc.Split(bytes.Repeat([]byte{9}, 30))
	orig[0] = nil
	if _, err := enc.Join(orig, 30); err == nil {
		t.Fatal("expected error when data shard missing")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	enc, _ := New(6, 4)
	data := make([]byte, 500)
	rand.New(rand.NewSource(2)).Read(data)
	shards, _ := enc.Split(data)
	ok, err := enc.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("clean verify: ok=%v err=%v", ok, err)
	}
	shards[3][7] ^= 0x40 // flip a bit in a data shard
	ok, err = enc.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify missed corruption")
	}
}

// TestCorruptedChunkYieldsWrongEntry mirrors the paper's note (§IV-B): the
// message can only be rebuilt if all input chunks are correct — rebuilding
// with a tampered chunk yields an erroneous message, which MassBFT detects
// via the PBFT certificate.
func TestCorruptedChunkYieldsWrongEntry(t *testing.T) {
	enc, _ := New(13, 15)
	data := make([]byte, 1300)
	rand.New(rand.NewSource(3)).Read(data)
	orig, _ := enc.Split(data)
	shards := make([][]byte, len(orig))
	for i := 0; i < 13; i++ {
		shards[i+13] = append([]byte(nil), orig[i+13]...) // parity only
	}
	shards[13][0] ^= 1 // tamper one input chunk
	if err := enc.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := enc.Join(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("tampered input produced the correct entry — impossible")
	}
}

func TestPropertyRoundTripUnderRandomErasure(t *testing.T) {
	f := func(seed int64, dataLen uint16) bool {
		n := int(dataLen)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		dataShards := rng.Intn(20) + 1
		parity := rng.Intn(20)
		enc, err := New(dataShards, parity)
		if err != nil {
			return false
		}
		data := make([]byte, n)
		rng.Read(data)
		orig, err := enc.Split(data)
		if err != nil {
			return false
		}
		shards := make([][]byte, len(orig))
		perm := rng.Perm(len(orig))
		for _, i := range perm[:dataShards] {
			shards[i] = append([]byte(nil), orig[i]...)
		}
		if err := enc.Reconstruct(shards); err != nil {
			return false
		}
		got, err := enc.Join(shards, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSize(t *testing.T) {
	enc, _ := New(4, 2)
	cases := map[int]int{1: 1, 4: 1, 5: 2, 8: 2, 9: 3, 100: 25}
	for n, want := range cases {
		if got := enc.ShardSize(n); got != want {
			t.Fatalf("ShardSize(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAccessors(t *testing.T) {
	enc, _ := New(13, 15)
	if enc.DataShards() != 13 || enc.ParityShards() != 15 || enc.TotalShards() != 28 {
		t.Fatalf("accessors wrong: %d/%d/%d", enc.DataShards(), enc.ParityShards(), enc.TotalShards())
	}
}

func BenchmarkEncode100KB(b *testing.B) {
	enc, _ := New(13, 15)
	data := make([]byte, 100*1024)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Split(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct100KB(b *testing.B) {
	enc, _ := New(13, 15)
	data := make([]byte, 100*1024)
	rand.New(rand.NewSource(1)).Read(data)
	orig, _ := enc.Split(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(orig))
		for j := 13; j < 26; j++ { // 13 parity shards only
			shards[j] = orig[j]
		}
		if err := enc.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// within reports whether s starts inside buf.
func within(s, buf []byte) bool {
	for j := range buf {
		if &s[0] == &buf[j] {
			return true
		}
	}
	return false
}

// TestSplitAliasesFullDataShards: every data shard wholly inside the input
// is the input's own bytes, capacity-clipped; the padded last one, any
// all-padding one and the parity shards are not.
func TestSplitAliasesFullDataShards(t *testing.T) {
	enc, _ := New(5, 3)
	for _, n := range []int{1, 3, 4, 25, 49, 50, 51, 1000} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		shards, err := enc.Split(data)
		if err != nil {
			t.Fatal(err)
		}
		size := enc.ShardSize(n)
		for i, s := range shards {
			full := i < 5 && (i+1)*size <= n
			if got := within(s, data); got != full {
				t.Fatalf("len %d shard %d: aliases the input %v, want %v", n, i, got, full)
			}
			if full && (&s[0] != &data[i*size] || cap(s) != size) {
				t.Fatalf("len %d shard %d: not data[%d:%d] clipped (cap %d)", n, i, i*size, (i+1)*size, cap(s))
			}
			if len(s) != size || cap(s) != size {
				t.Fatalf("len %d shard %d: len %d cap %d, want %d", n, i, len(s), cap(s), size)
			}
		}
	}
}

// TestReconstructAndJoinLeaveTheirInputs: shards a caller hands to
// Reconstruct, ReconstructData or Join, and the message they alias, are
// read, never written — the contract that lets chunks alias the certified
// entry bytes.
func TestReconstructAndJoinLeaveTheirInputs(t *testing.T) {
	enc, _ := New(7, 5)
	data := make([]byte, 1000)
	rand.New(rand.NewSource(4)).Read(data)
	orig, err := enc.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(shards [][]byte) [sha256.Size]byte {
		h := sha256.New()
		for _, s := range shards {
			h.Write(s)
		}
		var out [sha256.Size]byte
		h.Sum(out[:0])
		return out
	}
	before, dataSum := sum(orig), sha256.Sum256(data)
	for _, lost := range [][]int{nil, {0, 3}, {2, 7, 8}, {0, 1, 2, 3, 4}} {
		for _, withParity := range []bool{true, false} {
			shards := append([][]byte(nil), orig...)
			for _, i := range lost {
				shards[i] = nil
			}
			var err error
			if withParity {
				err = enc.Reconstruct(shards)
			} else {
				err = enc.ReconstructData(shards)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := enc.Join(shards, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("lost %v: join %v", lost, err)
			}
			if sum(orig) != before || sha256.Sum256(data) != dataSum {
				t.Fatalf("lost %v (parity %v): an input shard was written", lost, withParity)
			}
		}
	}
}
