package edwards25519

import (
	"math/big"
	"math/rand"
	"testing"
)

func scalarBig(s *Scalar) *big.Int { return fromLE(s.Bytes()) }

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

func setScalar(t testing.TB, x *big.Int) *Scalar {
	t.Helper()
	s, err := new(Scalar).SetCanonicalBytes(le(x, 32))
	if err != nil {
		t.Fatalf("SetCanonicalBytes(%v): %v", x, err)
	}
	return s
}

// TestScalarAgainstBig compares the arithmetic modulo L with math/big.
func TestScalarAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := scalarInputs(rng, 30)
	modL := func(x *big.Int) *big.Int { return x.Mod(x, bigL) }
	for _, x := range xs {
		a := setScalar(t, x)
		if scalarBig(a).Cmp(x) != 0 {
			t.Fatalf("round trip of %v", x)
		}
		if got := scalarBig(new(Scalar).Negate(a)); got.Cmp(modL(new(big.Int).Neg(x))) != 0 {
			t.Fatalf("-%v = %v", x, got)
		}
		for _, y := range xs {
			b := setScalar(t, y)
			if got := scalarBig(new(Scalar).Add(a, b)); got.Cmp(modL(new(big.Int).Add(x, y))) != 0 {
				t.Fatalf("%v + %v = %v", x, y, got)
			}
			if got := scalarBig(new(Scalar).Multiply(a, b)); got.Cmp(modL(new(big.Int).Mul(x, y))) != 0 {
				t.Fatalf("%v * %v = %v", x, y, got)
			}
			// MultiplyAdd with the accumulator aliased, as VerifyBatch calls it.
			acc := setScalar(t, xs[len(xs)-1])
			want := modL(new(big.Int).Add(new(big.Int).Mul(x, y), xs[len(xs)-1]))
			if got := scalarBig(acc.MultiplyAdd(a, b, acc)); got.Cmp(want) != 0 {
				t.Fatalf("%v * %v + c = %v", x, y, got)
			}
		}
	}
}

// TestScalarDecoding covers the three ways bytes become a scalar: canonical
// 32 bytes (L and above refused — the malleability check), 64 uniform bytes
// reduced, and a short coefficient.
func TestScalarDecoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	one := big.NewInt(1)
	for _, x := range []*big.Int{
		new(big.Int).Set(bigL), new(big.Int).Add(bigL, one),
		new(big.Int).Add(bigL, bigL),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	} {
		if _, err := new(Scalar).SetCanonicalBytes(le(x, 32)); err == nil {
			t.Errorf("SetCanonicalBytes accepted %v >= L", x)
		}
	}
	if _, err := new(Scalar).SetCanonicalBytes(make([]byte, 31)); err == nil {
		t.Error("31-byte scalar accepted")
	}

	wide := []*big.Int{
		big.NewInt(0), new(big.Int).Set(bigL), new(big.Int).Sub(bigL, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 512), one), new(big.Int).Lsh(one, 511),
	}
	for i := 0; i < 50; i++ {
		wide = append(wide, new(big.Int).Rand(rng, new(big.Int).Lsh(one, 512)))
	}
	for _, x := range wide {
		s, err := new(Scalar).SetUniformBytes(le(x, 64))
		if err != nil {
			t.Fatal(err)
		}
		if want := new(big.Int).Mod(x, bigL); scalarBig(s).Cmp(want) != 0 {
			t.Fatalf("SetUniformBytes(%v) = %v, want %v", x, scalarBig(s), want)
		}
	}
	if _, err := new(Scalar).SetUniformBytes(make([]byte, 63)); err == nil {
		t.Error("63 uniform bytes accepted")
	}

	for _, x := range []*big.Int{big.NewInt(0), one, new(big.Int).Sub(new(big.Int).Lsh(one, 128), one), new(big.Int).Rand(rng, new(big.Int).Lsh(one, 128))} {
		if got := scalarBig(new(Scalar).setShortBytes(le(x, 16))); got.Cmp(x) != 0 {
			t.Fatalf("setShortBytes(%v) = %v", x, got)
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

// TestScalarOpsDoNotAllocate: the per-signature scalar work of VerifyBatch
// stays on the stack.
func TestScalarOpsDoNotAllocate(t *testing.T) {
	var a, b, acc Scalar
	wide := make([]byte, 64)
	wide[5], wide[60] = 7, 9
	canon := le(new(big.Int).Sub(bigL, big.NewInt(1)), 32)
	digits := make([]int8, windows(6))
	n := testing.AllocsPerRun(100, func() {
		a.SetUniformBytes(wide)
		b.SetCanonicalBytes(canon)
		acc.setShortBytes(wide[:16])
		acc.MultiplyAdd(&a, &b, &acc)
		a.Multiply(&a, &b)
		a.Negate(&a)
		naf := a.nonAdjacentForm(5)
		a.signedDigits(6, digits, 1)
		digits[0] += naf[0]
	})
	if n != 0 {
		t.Fatalf("scalar arithmetic allocates %.0f objects", n)
	}
}
