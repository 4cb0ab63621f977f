package merkle

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func makeLeaves(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = make([]byte, size)
		rng.Read(leaves[i])
	}
	return leaves
}

func TestNewTreeEmpty(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Fatal("expected error for no leaves")
	}
}

func TestSingleLeaf(t *testing.T) {
	tr, err := NewTree([][]byte{[]byte("only")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Siblings) != 0 {
		t.Fatalf("single-leaf proof should be empty, got %d siblings", len(p.Siblings))
	}
	if !Verify(tr.Root(), 1, p, []byte("only")) {
		t.Fatal("single-leaf proof failed")
	}
	if Verify(tr.Root(), 1, p, []byte("other")) {
		t.Fatal("verified wrong data")
	}
}

func TestProveVerifyAllLeavesVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 28, 100} {
		leaves := makeLeaves(n, 64, int64(n))
		tr, err := NewTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		if tr.LeafCount() != n {
			t.Fatalf("LeafCount = %d, want %d", tr.LeafCount(), n)
		}
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			if !Verify(tr.Root(), n, p, leaves[i]) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
		}
	}
}

func TestVerifyRejectsTamperedData(t *testing.T) {
	leaves := makeLeaves(28, 64, 7)
	tr, _ := NewTree(leaves)
	p, _ := tr.Prove(5)
	bad := append([]byte(nil), leaves[5]...)
	bad[0] ^= 1
	if Verify(tr.Root(), 28, p, bad) {
		t.Fatal("tampered chunk verified")
	}
}

func TestVerifyRejectsWrongIndex(t *testing.T) {
	leaves := makeLeaves(16, 32, 8)
	tr, _ := NewTree(leaves)
	p, _ := tr.Prove(3)
	p.Index = 4
	if Verify(tr.Root(), 16, p, leaves[3]) {
		t.Fatal("proof verified at wrong index")
	}
	p.Index = -1
	if Verify(tr.Root(), 16, p, leaves[3]) {
		t.Fatal("negative index verified")
	}
}

func TestVerifyRejectsWrongDepth(t *testing.T) {
	leaves := makeLeaves(16, 32, 9)
	tr, _ := NewTree(leaves)
	p, _ := tr.Prove(0)
	p.Siblings = p.Siblings[:len(p.Siblings)-1]
	if Verify(tr.Root(), 16, p, leaves[0]) {
		t.Fatal("truncated proof verified")
	}
}

func TestVerifyRejectsCrossTreeProof(t *testing.T) {
	a := makeLeaves(8, 32, 10)
	b := makeLeaves(8, 32, 11)
	ta, _ := NewTree(a)
	tb, _ := NewTree(b)
	p, _ := ta.Prove(2)
	if Verify(tb.Root(), 8, p, a[2]) {
		t.Fatal("proof verified against foreign root")
	}
}

func TestReorderedChunksChangeRoot(t *testing.T) {
	// The paper requires that chunks sharing a Merkle root are encoded from
	// the same entry in the same order; swapping two chunks must change the
	// root because leaf hashes bind their index.
	leaves := makeLeaves(8, 32, 12)
	t1, _ := NewTree(leaves)
	swapped := append([][]byte(nil), leaves...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	t2, _ := NewTree(swapped)
	if t1.Root() == t2.Root() {
		t.Fatal("reordering leaves did not change root")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tr, _ := NewTree(makeLeaves(4, 8, 13))
	if _, err := tr.Prove(4); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if _, err := tr.Prove(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
}

func TestDeterministicRoot(t *testing.T) {
	leaves := makeLeaves(13, 100, 14)
	t1, _ := NewTree(leaves)
	t2, _ := NewTree(leaves)
	if t1.Root() != t2.Root() {
		t.Fatal("same leaves produced different roots")
	}
}

func TestPropertyProofSoundness(t *testing.T) {
	// Random trees: every honest proof verifies; a proof for leaf i never
	// verifies data from leaf j != i.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		leaves := makeLeaves(n, 24, seed)
		tr, err := NewTree(leaves)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		p, err := tr.Prove(i)
		if err != nil {
			return false
		}
		if !Verify(tr.Root(), n, p, leaves[i]) {
			return false
		}
		// leaves[j] may coincidentally equal leaves[i] only with 2^-192 prob.
		return !Verify(tr.Root(), n, p, leaves[j])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProofSize(t *testing.T) {
	for _, n := range []int{1, 2, 7, 28, 256} {
		leaves := makeLeaves(n, 8, int64(n))
		tr, _ := NewTree(leaves)
		p, _ := tr.Prove(0)
		want := 8 + len(p.Siblings)*HashSize
		if got := ProofSize(n); got != want {
			t.Fatalf("ProofSize(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRootPinned pins the hashing (leaf prefix and index binding, interior
// prefix, odd promotion): signed receipts and chunk roots on the wire depend
// on it.
func TestRootPinned(t *testing.T) {
	var leaves [][]byte
	for i := 0; i < 5; i++ {
		leaves = append(leaves, bytes.Repeat([]byte{byte(i + 1)}, 16+40*i))
	}
	tr, err := NewTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	const want = "2550c3e47d4a82c537e3a26c7e5c90de1db046eb931f23aefa5092252f8b1704"
	if got := hex.EncodeToString(root[:]); got != want {
		t.Fatalf("root = %s, want %s", got, want)
	}
}

// TestProofRoot checks the root-from-proof form against the tree's root for
// every leaf, that it refuses what Verify refuses, and that a 16-byte leaf
// (the gateway's receipt leaf) costs no allocation.
func TestProofRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 208} {
		leaves := makeLeaves(n, 16, int64(n))
		tr, _ := NewTree(leaves)
		for i := range leaves {
			p, _ := tr.Prove(i)
			got, ok := ProofRoot(n, p, leaves[i])
			if !ok || got != tr.Root() {
				t.Fatalf("n=%d leaf %d: ProofRoot = %v, %v", n, i, got, ok)
			}
			if other, ok := ProofRoot(n, p, leaves[(i+1)%n]); n > 1 && ok && other == tr.Root() {
				t.Fatalf("n=%d leaf %d: another leaf's data reached the root", n, i)
			}
		}
	}
	leaves := makeLeaves(5, 16, 1)
	tr, _ := NewTree(leaves)
	p, _ := tr.Prove(4)
	if _, ok := ProofRoot(9, p, leaves[4]); ok {
		t.Fatal("accepted a leaf count of another depth")
	}
	bad := Proof{Index: 4, Siblings: append([][HashSize]byte(nil), p.Siblings...)}
	bad.Siblings[0][0] ^= 1
	if _, ok := ProofRoot(5, bad, leaves[4]); ok {
		t.Fatal("accepted an odd-promotion sibling that is not the node's own hash")
	}
	if _, ok := ProofRoot(5, Proof{Index: 5, Siblings: p.Siblings}, leaves[4]); ok {
		t.Fatal("accepted an index past the leaf count")
	}
	if _, ok := ProofRoot(5, Proof{Index: 4, Siblings: p.Siblings[:2]}, leaves[4]); ok {
		t.Fatal("accepted a short path")
	}
	if _, ok := ProofRoot(0, Proof{}, leaves[4]); ok {
		t.Fatal("accepted an empty tree")
	}
	if n := testing.AllocsPerRun(100, func() { ProofRoot(5, p, leaves[4]) }); n != 0 {
		t.Fatalf("ProofRoot allocates %v per call", n)
	}
}

func BenchmarkTree28Chunks(b *testing.B) {
	leaves := makeLeaves(28, 4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTree(leaves); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyProof(b *testing.B) {
	leaves := makeLeaves(28, 4096, 1)
	tr, _ := NewTree(leaves)
	p, _ := tr.Prove(13)
	root := tr.Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(root, 28, p, leaves[13]) {
			b.Fatal("verify failed")
		}
	}
}
