package merkle

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMultiProofSingleLeafMatchesSingleProof(t *testing.T) {
	leaves := makeLeaves(13, 32, 21)
	tr, _ := NewTree(leaves)
	mp, err := tr.ProveMulti([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyMulti(tr.Root(), 13, mp, [][]byte{leaves[5]}) {
		t.Fatal("single-leaf multiproof rejected")
	}
	sp, _ := tr.Prove(5)
	if len(mp.Siblings) != len(sp.Siblings) {
		t.Fatalf("single-leaf multiproof has %d siblings, plain proof %d",
			len(mp.Siblings), len(sp.Siblings))
	}
}

func TestMultiProofAllLeaves(t *testing.T) {
	// Proving every leaf needs zero sibling hashes.
	leaves := makeLeaves(8, 16, 22)
	tr, _ := NewTree(leaves)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	mp, err := tr.ProveMulti(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Siblings) != 0 {
		t.Fatalf("full multiproof carries %d siblings, want 0", len(mp.Siblings))
	}
	if !VerifyMulti(tr.Root(), 8, mp, leaves) {
		t.Fatal("full multiproof rejected")
	}
}

func TestMultiProofCompactness(t *testing.T) {
	// k adjacent leaves: the multiproof must be smaller than k single
	// proofs (the paper's motivation for batching chunks per receiver).
	leaves := makeLeaves(28, 64, 23)
	tr, _ := NewTree(leaves)
	idx := []int{8, 9, 10, 11}
	mp, err := tr.ProveMulti(idx)
	if err != nil {
		t.Fatal(err)
	}
	single := 0
	for _, i := range idx {
		p, _ := tr.Prove(i)
		single += len(p.Siblings)
	}
	if len(mp.Siblings) >= single {
		t.Fatalf("multiproof %d siblings, %d singles — no compaction", len(mp.Siblings), single)
	}
	batch := make([][]byte, len(idx))
	for k, i := range idx {
		batch[k] = leaves[i]
	}
	if !VerifyMulti(tr.Root(), 28, mp, batch) {
		t.Fatal("compact multiproof rejected")
	}
}

func TestMultiProofRejectsTampering(t *testing.T) {
	leaves := makeLeaves(16, 32, 24)
	tr, _ := NewTree(leaves)
	idx := []int{2, 7, 11}
	mp, _ := tr.ProveMulti(idx)
	batch := [][]byte{leaves[2], leaves[7], leaves[11]}

	if !VerifyMulti(tr.Root(), 16, mp, batch) {
		t.Fatal("honest multiproof rejected")
	}
	bad := [][]byte{leaves[2], append([]byte{0xFF}, leaves[7]...), leaves[11]}
	if VerifyMulti(tr.Root(), 16, mp, bad) {
		t.Fatal("tampered leaf verified")
	}
	// Swapped leaves must fail (indices bind positions).
	swapped := [][]byte{leaves[7], leaves[2], leaves[11]}
	if VerifyMulti(tr.Root(), 16, mp, swapped) {
		t.Fatal("swapped leaves verified")
	}
	// Wrong count.
	if VerifyMulti(tr.Root(), 16, mp, batch[:2]) {
		t.Fatal("short batch verified")
	}
	// Truncated siblings.
	trunc := mp
	if len(trunc.Siblings) > 0 {
		trunc.Siblings = trunc.Siblings[:len(trunc.Siblings)-1]
		if VerifyMulti(tr.Root(), 16, trunc, batch) {
			t.Fatal("truncated multiproof verified")
		}
	}
	// Extra trailing sibling.
	extra := mp
	extra.Siblings = append(append([][HashSize]byte{}, mp.Siblings...), [HashSize]byte{1})
	if VerifyMulti(tr.Root(), 16, extra, batch) {
		t.Fatal("padded multiproof verified")
	}
	// Non-increasing indices.
	dup := mp
	dup.Indices = append([]int{}, mp.Indices...)
	dup.Indices[1] = dup.Indices[0]
	if VerifyMulti(tr.Root(), 16, dup, batch) {
		t.Fatal("duplicate indices verified")
	}
}

func TestMultiProofErrors(t *testing.T) {
	tr, _ := NewTree(makeLeaves(4, 8, 25))
	if _, err := tr.ProveMulti(nil); err == nil {
		t.Fatal("empty index set accepted")
	}
	if _, err := tr.ProveMulti([]int{4}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	mp, _ := tr.ProveMulti([]int{1, 1, 1})
	if len(mp.Indices) != 1 {
		t.Fatalf("duplicates not collapsed: %v", mp.Indices)
	}
}

func TestMultiProofProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 2
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%n + 1
		leaves := makeLeaves(n, 24, seed)
		tr, err := NewTree(leaves)
		if err != nil {
			return false
		}
		idx := rng.Perm(n)[:k]
		mp, err := tr.ProveMulti(idx)
		if err != nil {
			return false
		}
		batch := make([][]byte, len(mp.Indices))
		for j, i := range mp.Indices {
			batch[j] = leaves[i]
		}
		if !VerifyMulti(tr.Root(), n, mp, batch) {
			return false
		}
		// Corrupting any single leaf must break it.
		j := rng.Intn(len(batch))
		tampered := append([][]byte{}, batch...)
		tampered[j] = append([]byte{0xAA}, batch[j]...)
		return !VerifyMulti(tr.Root(), n, mp, tampered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMultiProof4of28(b *testing.B) {
	leaves := makeLeaves(28, 4096, 1)
	tr, _ := NewTree(leaves)
	idx := []int{0, 1, 2, 3}
	batch := [][]byte{leaves[0], leaves[1], leaves[2], leaves[3]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := tr.ProveMulti(idx)
		if err != nil {
			b.Fatal(err)
		}
		if !VerifyMulti(tr.Root(), 28, mp, batch) {
			b.Fatal("verify failed")
		}
	}
}

// proveMultiMap and verifyMultiMap are the map-based multiproof walks
// ProveMulti and VerifyMulti replaced, kept as their oracle: at every level
// they rebuild the set of known positions as a map and sort its keys.
func proveMultiMap(t *Tree, indices []int) (MultiProof, error) {
	if len(indices) == 0 {
		return MultiProof{}, errors.New("merkle: no indices")
	}
	want := make(map[int]bool)
	for _, i := range indices {
		if i < 0 || i >= t.leafCount {
			return MultiProof{}, fmt.Errorf("merkle: index %d out of range [0,%d)", i, t.leafCount)
		}
		want[i] = true
	}
	sorted := make([]int, 0, len(want))
	for i := range want {
		sorted = append(sorted, i)
	}
	sort.Ints(sorted)

	proof := MultiProof{Indices: sorted}
	known := make(map[int]bool, len(want))
	for _, i := range sorted {
		known[i] = true
	}
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		width := len(t.levels[lvl])
		next := make(map[int]bool)
		positions := make([]int, 0, len(known))
		for p := range known {
			positions = append(positions, p)
		}
		sort.Ints(positions)
		emitted := make(map[int]bool)
		for _, p := range positions {
			sib := p ^ 1
			if sib >= width {
				sib = p
			}
			if !known[sib] && !emitted[sib] {
				proof.Siblings = append(proof.Siblings, t.levels[lvl][sib])
				emitted[sib] = true
			}
			next[p/2] = true
		}
		known = next
	}
	return proof, nil
}

func verifyMultiMap(root Root, leafCount int, proof MultiProof, leaves [][]byte) bool {
	if len(proof.Indices) == 0 || len(leaves) != len(proof.Indices) || leafCount <= 0 {
		return false
	}
	for k, i := range proof.Indices {
		if i < 0 || i >= leafCount {
			return false
		}
		if k > 0 && proof.Indices[k-1] >= i {
			return false
		}
	}
	known := make(map[int][HashSize]byte, len(leaves))
	for k, i := range proof.Indices {
		known[i] = LeafHash(i, leaves[k])
	}
	sibIdx := 0
	width := leafCount
	for width > 1 {
		next := make(map[int][HashSize]byte)
		positions := make([]int, 0, len(known))
		for p := range known {
			positions = append(positions, p)
		}
		sort.Ints(positions)
		consumed := make(map[int]bool)
		for _, p := range positions {
			if consumed[p] {
				continue
			}
			sib := p ^ 1
			if sib >= width {
				sib = p
			}
			var sibHash [HashSize]byte
			if h, ok := known[sib]; ok {
				sibHash = h
				consumed[sib] = true
			} else {
				if sibIdx >= len(proof.Siblings) {
					return false
				}
				sibHash = proof.Siblings[sibIdx]
				sibIdx++
			}
			var parent [HashSize]byte
			switch {
			case sib == p:
				parent = interiorHash(known[p], known[p])
			case p%2 == 0:
				parent = interiorHash(known[p], sibHash)
			default:
				parent = interiorHash(sibHash, known[p])
			}
			next[p/2] = parent
		}
		known = next
		width = (width + 1) / 2
	}
	if sibIdx != len(proof.Siblings) {
		return false
	}
	rootHash, ok := known[0]
	return ok && Root(rootHash) == root
}

// FuzzVerifyMulti holds ProveMulti and VerifyMulti to the map-based oracle:
// the same proof for every index set of trees of 1 to 64 leaves, and the
// same verdict on honest proofs, on unsorted or duplicate indices, on a
// tampered leaf or sibling, on missing or extra siblings, on swapped leaves
// and on a wrong leaf count.
func FuzzVerifyMulti(f *testing.F) {
	f.Add(uint8(27), []byte{0, 1, 2, 3}, uint8(0), uint16(0))
	f.Add(uint8(12), []byte{5, 2, 5, 9}, uint8(1), uint16(3))
	f.Add(uint8(63), []byte{7, 40, 41, 62}, uint8(2), uint16(1))
	f.Add(uint8(6), []byte{6}, uint8(3), uint16(0))
	f.Add(uint8(16), []byte{1, 8}, uint8(4), uint16(2))
	f.Add(uint8(9), []byte{3, 1, 1, 7}, uint8(5), uint16(0))
	f.Add(uint8(0), []byte{0}, uint8(7), uint16(0))
	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte, mode uint8, pick uint16) {
		n := int(nRaw)%64 + 1
		if len(raw) == 0 {
			raw = []byte{0}
		}
		idx := make([]int, len(raw))
		for k, b := range raw {
			idx[k] = int(b) % n
		}
		leaves := makeLeaves(n, 8, int64(nRaw))
		tr, err := NewTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := tr.ProveMulti(idx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := proveMultiMap(tr, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mp.Indices, want.Indices) || !slices.Equal(mp.Siblings, want.Siblings) {
			t.Fatalf("n=%d idx=%v: proof %v / %d siblings, oracle %v / %d", n, idx,
				mp.Indices, len(mp.Siblings), want.Indices, len(want.Siblings))
		}
		batch := make([][]byte, len(mp.Indices))
		for k, i := range mp.Indices {
			batch[k] = leaves[i]
		}
		count, p := n, int(pick)
		switch mode % 8 {
		case 0: // honest
		case 1: // a tampered leaf
			k := p % len(batch)
			batch[k] = append([]byte{0xAA}, batch[k][1:]...)
		case 2: // a tampered sibling
			if len(mp.Siblings) > 0 {
				mp.Siblings = slices.Clone(mp.Siblings)
				mp.Siblings[p%len(mp.Siblings)][p%HashSize] ^= 1
			}
		case 3: // a missing sibling
			if len(mp.Siblings) > 0 {
				mp.Siblings = slices.Delete(slices.Clone(mp.Siblings), p%len(mp.Siblings), p%len(mp.Siblings)+1)
			}
		case 4: // an extra sibling
			at := p % (len(mp.Siblings) + 1)
			mp.Siblings = slices.Insert(slices.Clone(mp.Siblings), at, tr.levels[0][p%n])
		case 5: // the raw indices, unsorted and with duplicates
			mp.Indices = idx
			batch = make([][]byte, len(idx))
			for k, i := range idx {
				batch[k] = leaves[i]
			}
		case 6: // two leaves swapped
			if len(batch) > 1 {
				k := p % (len(batch) - 1)
				batch[k], batch[k+1] = batch[k+1], batch[k]
			}
		case 7: // a wrong leaf count
			count = n + 1 - 2*(p%2)
		}
		got, oracle := VerifyMulti(tr.Root(), count, mp, batch), verifyMultiMap(tr.Root(), count, mp, batch)
		if got != oracle {
			t.Fatalf("n=%d idx=%v mode %d: VerifyMulti %v, oracle %v", n, mp.Indices, mode%8, got, oracle)
		}
		if mode%8 == 0 && !got {
			t.Fatalf("n=%d idx=%v: honest multiproof rejected", n, mp.Indices)
		}
	})
}

// TestVerifyMultiAllocs pins VerifyMulti's one allocation, the slice of
// known nodes it rewrites level by level.
func TestVerifyMultiAllocs(t *testing.T) {
	leaves := makeLeaves(28, 64, 26)
	tr, _ := NewTree(leaves)
	for _, idx := range [][]int{{5}, {0, 1, 2, 3}, {3, 9, 10, 27}} {
		mp, err := tr.ProveMulti(idx)
		if err != nil {
			t.Fatal(err)
		}
		batch := make([][]byte, len(mp.Indices))
		for k, i := range mp.Indices {
			batch[k] = leaves[i]
		}
		if !VerifyMulti(tr.Root(), 28, mp, batch) {
			t.Fatalf("%v: honest multiproof rejected", idx)
		}
		if a := testing.AllocsPerRun(50, func() { VerifyMulti(tr.Root(), 28, mp, batch) }); a > 1 {
			t.Fatalf("%v: VerifyMulti makes %.0f allocations, want at most 1", idx, a)
		}
	}
}
