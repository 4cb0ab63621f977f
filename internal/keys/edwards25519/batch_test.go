package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func clone(sigs []Signature) []Signature { return append([]Signature(nil), sigs...) }

func flipBit(b []byte, bit int) []byte {
	out := bytes.Clone(b)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// forgeries are the ways one entry of a batch can be wrong. Each takes the
// honest entry at position i (and the batch, for the ones that borrow from a
// neighbour) and returns the forged entry.
var forgeries = []struct {
	name  string
	forge func(rng *rand.Rand, sigs []Signature, i int) Signature
}{
	{"bit flipped in R", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.Sig = flipBit(sg.Sig, rng.Intn(256))
		return sg
	}},
	{"bit flipped in s", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.Sig = flipBit(sg.Sig, 256+rng.Intn(252))
		return sg
	}},
	{"bit flipped in the message", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.Msg = flipBit(sg.Msg, rng.Intn(8*len(sg.Msg)))
		return sg
	}},
	{"right signature, another signer's key", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		other := sigs[(i+1)%len(sigs)]
		if len(sigs) == 1 {
			other = item(randomPoints(1, "other key")[0].Bytes(), nil, nil)
		}
		sg.A, sg.Pub = other.A, other.Pub
		return sg
	}},
	{"s + L", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		s := fromLE(sg.Sig[32:])
		sg.Sig = append(bytes.Clone(sg.Sig[:32]), le(s.Add(s, bigL), 32)...)
		return sg
	}},
	{"R not on the curve", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.Sig = append(le(big.NewInt(2), 32), sg.Sig[32:]...)
		return sg
	}},
	{"unknown signer", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.A = nil
		return sg
	}},
	{"63-byte signature", func(rng *rand.Rand, sigs []Signature, i int) Signature {
		sg := sigs[i]
		sg.Sig = sg.Sig[:63]
		return sg
	}},
}

// TestForgeriesRejectedAtEveryPosition: a batch with one forged entry fails
// wherever the entry sits. Up to 64 signatures every kind of forgery visits
// every position; at 209 and 400 every position gets one kind, drawn at
// random, and the first and last positions get all of them (under -short
// the large sizes check a sample of positions).
func TestForgeriesRejectedAtEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var v BatchVerifier
	for _, n := range []int{1, 2, 3, 17, 64, 209, 400} {
		sigs, _ := honest(t, n, int64(n))
		if !v.VerifyBatch(sigs) {
			t.Fatalf("n=%d: honest batch rejected", n)
		}
		try := func(kind, pos int) {
			forged := clone(sigs)
			forged[pos] = forgeries[kind].forge(rng, sigs, pos)
			f := forged[pos]
			if f.A != nil && len(f.Sig) == 64 && verifyOne(f.Pub, f.Msg, f.Sig) {
				t.Fatalf("n=%d: %q at %d is valid by the single-signature rule — a broken test", n, forgeries[kind].name, pos)
			}
			if v.VerifyBatch(forged) {
				t.Fatalf("n=%d: %q at position %d accepted", n, forgeries[kind].name, pos)
			}
		}
		for pos := 0; pos < n; pos++ {
			switch {
			case n <= 64 && !(testing.Short() && n == 64), pos == 0, pos == n-1:
				for kind := range forgeries {
					try(kind, pos)
				}
			case !testing.Short() || pos%16 == 0:
				try(rng.Intn(len(forgeries)), pos)
			}
		}
		if !v.VerifyBatch(sigs) {
			t.Fatalf("n=%d: honest batch rejected after the forged ones", n)
		}
	}
}

// TestCancellingForgeries is the reason the coefficients exist: s1 + δ and
// s2 - δ are both invalid, and their errors, δ·B and -δ·B, cancel in any sum
// that weighs them equally. With every z_i forced to 1 this test fails; with
// coefficients bound to the batch it must not.
func TestCancellingForgeries(t *testing.T) {
	var v BatchVerifier
	for _, n := range []int{2, 3, 17, 64, 209} {
		sigs, _ := honest(t, n, 100+int64(n))
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 4; trial++ {
			i, j := rng.Intn(n), rng.Intn(n-1)
			if j >= i {
				j++
			}
			delta := new(big.Int).Rand(rng, bigL)
			if trial == 0 {
				delta.SetInt64(1)
			}
			shift := func(sg Signature, d *big.Int) Signature {
				s := fromLE(sg.Sig[32:])
				s.Add(s, d).Mod(s, bigL)
				sg.Sig = append(bytes.Clone(sg.Sig[:32]), le(s, 32)...)
				return sg
			}
			forged := clone(sigs)
			forged[i] = shift(sigs[i], delta)
			forged[j] = shift(sigs[j], new(big.Int).Neg(delta))
			for _, k := range []int{i, j} {
				f := forged[k]
				if verifyOne(f.Pub, f.Msg, f.Sig) || v.VerifyBatch([]Signature{f}) {
					t.Fatalf("n=%d: shifted signature valid on its own", n)
				}
			}
			if v.VerifyBatch(forged) {
				t.Fatalf("n=%d: errors +δ at %d and -δ at %d cancelled", n, i, j)
			}
			if v.VerifyBatch([]Signature{forged[i], forged[j]}) || v.VerifyBatch([]Signature{forged[j], forged[i]}) {
				t.Fatalf("n=%d: the cancelling pair passed as a batch of two", n)
			}
		}
	}
}

// TestTorsionAgreement: a signature whose R (or key) carries a small-order
// component T satisfies the cofactored equation and, in general, not the
// cofactorless one. Its verdict must be the same alone, inside a batch, next
// to a partner carrying -T (under equal weights the two would cancel, under
// unequal ones they would not — the inconsistency a cofactorless batch
// verifier has), and on verifiers with different histories, the stand-ins for
// the followers of one group.
func TestTorsionAgreement(t *testing.T) {
	others, sgs := honest(t, 18, 5)
	fresh := func() *BatchVerifier { return new(BatchVerifier) }
	warm := fresh()
	large, _ := honest(t, 120, 6)
	warm.VerifyBatch(large)
	failed := fresh()
	bad := clone(others)
	bad[3].Msg = []byte("not what was signed")
	if failed.VerifyBatch(bad) {
		t.Fatal("forged batch accepted")
	}
	followers := []*BatchVerifier{fresh(), warm, failed}

	cofactorlessRejects := 0
	for ti, tp := range torsionPoints(t) {
		neg := new(Point).negate(tp)
		msg, msg2 := []byte(fmt.Sprintf("torsion %d", ti)), []byte(fmt.Sprintf("partner %d", ti))
		for _, onKey := range []bool{false, true} {
			var one, partner Signature
			if onKey {
				pub, sig := sgs[0].signWith(msg, nil, tp)
				pub2, sig2 := sgs[1].signWith(msg2, nil, neg)
				one, partner = item(pub, msg, sig), item(pub2, msg2, sig2)
			} else {
				pub, sig := sgs[0].signWith(msg, tp, nil)
				pub2, sig2 := sgs[1].signWith(msg2, neg, nil)
				one, partner = item(pub, msg, sig), item(pub2, msg2, sig2)
			}
			if !verifyOne(one.Pub, one.Msg, one.Sig) || !verifyOne(partner.Pub, partner.Msg, partner.Sig) {
				t.Fatalf("T%d onKey=%v: the single-signature rule rejects a torsion signature", ti, onKey)
			}
			if !ed25519.Verify(one.Pub, one.Msg, one.Sig) {
				cofactorlessRejects++
			}
			inBatch := append(clone(others[2:]), one)
			inBatch[0], inBatch[len(inBatch)-1] = inBatch[len(inBatch)-1], inBatch[0]
			for fi, f := range followers {
				for name, batch := range map[string][]Signature{
					"alone":            {one},
					"in a batch":       inBatch,
					"next to -T":       {one, partner},
					"-T first":         {partner, one},
					"pair in a batch":  append(clone(others[2:]), partner, one),
					"twice":            {one, one},
					"partner, alone":   {partner},
					"partner in batch": append([]Signature{partner}, others[2:]...),
				} {
					if !f.VerifyBatch(batch) {
						t.Fatalf("T%d onKey=%v follower %d: %s rejected", ti, onKey, fi, name)
					}
				}
			}
		}
	}
	// The test only means something if crypto/ed25519 disagrees with the
	// cofactored rule on these: every T but the identity moves R off the
	// point the cofactorless equation expects.
	if cofactorlessRejects < 7 {
		t.Fatalf("crypto/ed25519 rejected %d of the torsion signatures, expected at least the 7 with T != O on R", cofactorlessRejects)
	}
}

// TestVerdictIsAFunctionOfTheBatch: the same batch, valid or forged, gets
// the same verdict on a fresh verifier and on one that has seen other batches
// of other sizes, and the verdict does not change when asked again.
func TestVerdictIsAFunctionOfTheBatch(t *testing.T) {
	good, _ := honest(t, 33, 9)
	bad := clone(good)
	bad[20].Sig = flipBit(bad[20].Sig, 300)
	var used BatchVerifier
	for _, n := range []int{400, 3, 120, 1} {
		sigs, _ := honest(t, n, int64(n))
		used.VerifyBatch(sigs)
		for round := 0; round < 2; round++ {
			var fresh BatchVerifier
			if !used.VerifyBatch(good) || !fresh.VerifyBatch(good) {
				t.Fatal("valid batch rejected")
			}
			if used.VerifyBatch(bad) || fresh.VerifyBatch(bad) {
				t.Fatal("forged batch accepted")
			}
		}
	}
	if !used.VerifyBatch(nil) {
		t.Fatal("the empty batch is valid")
	}
}

// TestVerifyBatchCostCeilings pins what a batch costs: once the scratch has
// grown, no allocation at any size on either side of the Straus limit, and
// one point decoded per signature — the keys arrive decoded.
func TestVerifyBatchCostCeilings(t *testing.T) {
	var v BatchVerifier
	for _, n := range []int{1, 4, 48, 209} {
		sigs, _ := honest(t, n, int64(n))
		v.VerifyBatch(sigs)
		before := v.decoded
		if allocs := testing.AllocsPerRun(3, func() {
			if !v.VerifyBatch(sigs) {
				t.Fatal("rejected")
			}
		}); allocs != 0 {
			t.Errorf("n=%d: VerifyBatch allocates %.0f objects in steady state", n, allocs)
		}
		if got := v.decoded - before; got != uint64(4*n) {
			t.Errorf("n=%d: %d points decoded over 4 batches, want %d", n, got, 4*n)
		}
	}
}

func BenchmarkVerifyBatch(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64, 209} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sigs, _ := honest(b, n, 1)
			var v BatchVerifier
			v.VerifyBatch(sigs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !v.VerifyBatch(sigs) {
					b.Fatal("rejected")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "us/sig")
		})
	}
}

// BenchmarkStdlibVerify is the per-signature cost VerifyBatch replaces.
func BenchmarkStdlibVerify(b *testing.B) {
	sigs, _ := honest(b, 1, 1)
	for i := 0; i < b.N; i++ {
		if !ed25519.Verify(sigs[0].Pub, sigs[0].Msg, sigs[0].Sig) {
			b.Fatal("rejected")
		}
	}
}
