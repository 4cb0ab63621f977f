package edwards25519

import (
	"math/big"
	"math/rand"
	"testing"
)

func scalarBig(s *scalar) *big.Int { return fromLE(s[:]) }

// scalarInputs returns the edge values below L — 0, 1, 2^128 - 1, 2^252, L - 1
// — and random ones.
func scalarInputs(rng *rand.Rand, random int) []*big.Int {
	one := big.NewInt(1)
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(8),
		new(big.Int).Sub(new(big.Int).Lsh(one, 128), one),
		new(big.Int).Lsh(one, 128),
		new(big.Int).Lsh(one, 252),
		new(big.Int).Sub(bigL, one),
		new(big.Int).Rsh(bigL, 1),
	}
	for i := 0; i < random; i++ {
		xs = append(xs, new(big.Int).Rand(rng, bigL))
	}
	return xs
}

func setScalar(t testing.TB, x *big.Int) *scalar {
	t.Helper()
	s, err := new(scalar).setCanonicalBytes(le(x, 32))
	if err != nil {
		t.Fatalf("setCanonicalBytes(%v): %v", x, err)
	}
	return s
}

// TestScalarDecoding covers the two ways bytes become a scalar: canonical 32
// bytes (L and above refused — the malleability check) and a short
// coefficient.
func TestScalarDecoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	one := big.NewInt(1)
	for _, x := range []*big.Int{
		new(big.Int).Set(bigL), new(big.Int).Add(bigL, one),
		new(big.Int).Add(bigL, bigL),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	} {
		if _, err := new(scalar).setCanonicalBytes(le(x, 32)); err == nil {
			t.Errorf("setCanonicalBytes accepted %v >= L", x)
		}
	}
	if _, err := new(scalar).setCanonicalBytes(make([]byte, 31)); err == nil {
		t.Error("31-byte scalar accepted")
	}

	for _, x := range []*big.Int{big.NewInt(0), one, new(big.Int).Sub(new(big.Int).Lsh(one, 128), one), new(big.Int).Rand(rng, new(big.Int).Lsh(one, 128))} {
		if got := scalarBig(new(scalar).setShortBytes(le(x, 16))); got.Cmp(x) != 0 {
			t.Fatalf("setShortBytes(%v) = %v", x, got)
		}
	}
}

// TestReduceModL checks the verifier's arithmetic modulo L against
// big.Int.Mod at the edges of what it reduces: products z_i·k_i up to
// 2^640 - 1 (L and 2^640 - 1 among those whose Barrett quotient is one
// short) and the negated accumulator, whose negative values take the L - r
// fix-up. The result is read back with fromLE, so a reversed byte order
// fails too, and setLE must read back what le wrote.
func TestReduceModL(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	one := big.NewInt(1)
	top := new(big.Int).Lsh(one, 640)
	xs := []*big.Int{
		big.NewInt(0), new(big.Int).Sub(bigL, one), new(big.Int).Set(bigL),
		new(big.Int).Add(bigL, one), new(big.Int).Sub(top, one),
		big.NewInt(-1), new(big.Int).Neg(bigL), new(big.Int).Neg(new(big.Int).Add(bigL, one)),
	}
	for i := 0; i < 20; i++ {
		x := new(big.Int).Rand(rng, top)
		xs = append(xs, x, new(big.Int).Neg(x))
	}
	var v BatchVerifier
	for _, x := range xs {
		var s scalar
		v.reduce(&s, new(big.Int).Set(x))
		if got, want := fromLE(s[:]), new(big.Int).Mod(x, bigL); got.Cmp(want) != 0 {
			t.Errorf("%v mod L = %v, want %v", x, got, want)
		}
		if x.Sign() >= 0 && x.BitLen() <= 512 {
			if got := v.setLE(new(big.Int), le(x, 64)); got.Cmp(x) != 0 {
				t.Errorf("setLE(le(%v)) = %v", x, got)
			}
		}
	}
}

// TestScalarDigits checks both recodings the multiplication walks: each must
// evaluate back to the scalar, with digits inside its stated range.
func TestScalarDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, x := range scalarInputs(rng, 60) {
		s := setScalar(t, x)

		naf := s.nonAdjacentForm(5)
		sum := new(big.Int)
		for i := 255; i >= 0; i-- {
			sum.Lsh(sum, 1).Add(sum, big.NewInt(int64(naf[i])))
			if d := naf[i]; d != 0 && (d%2 == 0 || d < -15 || d > 15) {
				t.Fatalf("NAF digit %d of %v is %d", i, x, d)
			}
		}
		if sum.Cmp(x) != 0 {
			t.Fatalf("NAF of %v evaluates to %v", x, sum)
		}

		for c := uint(3); c <= 8; c++ {
			const stride = 3
			nw := windows(c)
			out := make([]int8, nw*stride)
			s.signedDigits(c, out[1:], stride)
			sum.SetInt64(0)
			for w := nw - 1; w >= 0; w-- {
				d := int64(out[1+w*stride])
				if d < -(1<<(c-1)) || d > 1<<(c-1) || (w < nw-1 && d == 1<<(c-1)) {
					t.Fatalf("radix-2^%d digit %d of %v is %d", c, w, x, d)
				}
				sum.Lsh(sum, c).Add(sum, big.NewInt(d))
			}
			if sum.Cmp(x) != 0 {
				t.Fatalf("radix-2^%d digits of %v evaluate to %v", c, x, sum)
			}
			for i, d := range out {
				if i%stride != 1 && d != 0 {
					t.Fatalf("signedDigits wrote outside its stride at %d", i)
				}
			}
		}
	}
}
