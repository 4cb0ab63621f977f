package field

import (
	"math/big"
	"math/rand"
	"testing"
)

var bigP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

func toBig(v *Element) *big.Int {
	b := v.Bytes()
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return new(big.Int).SetBytes(b)
}

// fromBig encodes x < 2^255 little-endian and decodes it with SetBytes, which
// accepts the unreduced values p..2^255-1 too.
func fromBig(t testing.TB, x *big.Int) *Element {
	t.Helper()
	var buf [32]byte
	x.FillBytes(buf[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	v, err := new(Element).SetBytes(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// inputs returns the edge values — 0, 1, 2, p-1, p (an unreduced 0), 2^255-1
// (an unreduced 18), values with every limb full — and random ones.
func inputs(rng *rand.Rand, random int) []*big.Int {
	one := big.NewInt(1)
	top := new(big.Int).Sub(new(big.Int).Lsh(one, 255), one)
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(19),
		new(big.Int).Sub(bigP, one), new(big.Int).Set(bigP), top,
		new(big.Int).Sub(new(big.Int).Lsh(one, 51), one),
		new(big.Int).Lsh(one, 204),
		new(big.Int).Rsh(bigP, 1),
	}
	for i := 0; i < random; i++ {
		xs = append(xs, new(big.Int).Rand(rng, new(big.Int).Lsh(one, 255)))
	}
	return xs
}

func mod(x *big.Int) *big.Int { return x.Mod(x, bigP) }

func check(t *testing.T, op string, got *Element, want *big.Int, args ...*big.Int) {
	t.Helper()
	if toBig(got).Cmp(want) != 0 {
		t.Fatalf("%s%v = %v, want %v", op, args, toBig(got), want)
	}
	// Between operations every limb stays below 2^52.
	for _, l := range [5]uint64{got.l0, got.l1, got.l2, got.l3, got.l4} {
		if l >= 1<<52 {
			t.Fatalf("%s%v left limb %#x, want it below 2^52", op, args, l)
		}
	}
}

// TestAgainstBig compares every operation with math/big on the edge values
// and on random ones, pairwise.
func TestAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := inputs(rng, 40)
	for _, x := range xs {
		a := fromBig(t, x)
		check(t, "set", a, mod(new(big.Int).Set(x)), x)
		check(t, "neg", new(Element).Negate(a), mod(new(big.Int).Neg(x)), x)
		check(t, "square", new(Element).Square(a), mod(new(big.Int).Mul(x, x)), x)
		check(t, "invert", new(Element).Invert(a), mod(new(big.Int).Exp(x, new(big.Int).Sub(bigP, big.NewInt(2)), bigP)), x)
		e := new(big.Int).Sub(bigP, big.NewInt(5))
		check(t, "pow22523", new(Element).Pow22523(a), new(big.Int).Exp(x, e.Rsh(e, 3), bigP), x)
		if got, want := a.IsNegative(), int(mod(new(big.Int).Set(x)).Bit(0)); got != want {
			t.Fatalf("IsNegative(%v) = %d, want %d", x, got, want)
		}
		for _, y := range xs {
			b := fromBig(t, y)
			check(t, "add", new(Element).Add(a, b), mod(new(big.Int).Add(x, y)), x, y)
			check(t, "sub", new(Element).Subtract(a, b), mod(new(big.Int).Sub(x, y)), x, y)
			check(t, "mul", new(Element).Multiply(a, b), mod(new(big.Int).Mul(x, y)), x, y)
			same := mod(new(big.Int).Set(x)).Cmp(mod(new(big.Int).Set(y))) == 0
			if got := a.Equal(b) == 1; got != same {
				t.Fatalf("Equal(%v, %v) = %v", x, y, got)
			}
			// Aliased receivers.
			c := new(Element).Set(a)
			check(t, "mul-alias", c.Multiply(c, b), mod(new(big.Int).Mul(x, y)), x, y)
			c.Set(a)
			check(t, "sub-alias", c.Subtract(b, c), mod(new(big.Int).Sub(y, x)), y, x)
		}
	}
}

// TestSqrtRatio checks both outcomes against math/big: for a square ratio the
// result is the non-negative root; for a non-square one it reports 0.
func TestSqrtRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := inputs(rng, 30)
	for _, x := range xs {
		for _, y := range xs[:12] {
			u, v := fromBig(t, x), fromBig(t, y)
			r, ok := new(Element).SqrtRatio(u, v)
			if mod(new(big.Int).Set(y)).Sign() == 0 {
				// u/0: square only for u = 0, with root 0.
				if want := mod(new(big.Int).Set(x)).Sign() == 0; (ok == 1) != want {
					t.Fatalf("SqrtRatio(%v, 0) ok = %d", x, ok)
				}
				continue
			}
			ratio := new(big.Int).Mul(x, new(big.Int).ModInverse(mod(new(big.Int).Set(y)), bigP))
			root := new(big.Int).ModSqrt(mod(ratio), bigP)
			if (root != nil) != (ok == 1) {
				t.Fatalf("SqrtRatio(%v, %v) ok = %d, math/big says square = %v", x, y, ok, root != nil)
			}
			if root == nil {
				continue
			}
			if root.Bit(0) == 1 {
				root.Sub(bigP, root)
			}
			check(t, "sqrtratio", r, root, x, y)
		}
	}
}

// TestBytesRoundTrip pins the encoding: canonical, little-endian, the top bit
// of the input ignored.
func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, x := range inputs(rng, 40) {
		a := fromBig(t, x)
		b, err := new(Element).SetBytes(a.Bytes())
		if err != nil || b.Equal(a) != 1 {
			t.Fatalf("round trip of %v", x)
		}
		withTop := a.Bytes()
		withTop[31] |= 0x80
		if c, _ := new(Element).SetBytes(withTop); c.Equal(a) != 1 {
			t.Fatalf("top bit of %v not ignored", x)
		}
	}
	if _, err := new(Element).SetBytes(make([]byte, 31)); err == nil {
		t.Fatal("31-byte input accepted")
	}
}

// TestMulSquareAgainstGeneric runs the multiplication and squaring this
// build selected (the amd64 assembly unless -tags purego) against the generic
// code on the same inputs, including limbs at the 2^52 bound operations may
// leave behind.
func TestMulSquareAgainstGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var es []*Element
	for _, x := range inputs(rng, 200) {
		es = append(es, fromBig(t, x))
	}
	const maxLimb = 1<<52 - 1
	es = append(es, &Element{maxLimb, maxLimb, maxLimb, maxLimb, maxLimb}, &Element{maxLimb, 0, maxLimb, 0, maxLimb})
	for i := 0; i < 100; i++ {
		es = append(es, &Element{rng.Uint64() & maxLimb, rng.Uint64() & maxLimb, rng.Uint64() & maxLimb, rng.Uint64() & maxLimb, rng.Uint64() & maxLimb})
	}
	for _, a := range es {
		var got, want Element
		feSquare(&got, a)
		feSquareGeneric(&want, a)
		if got != want {
			t.Fatalf("feSquare(%v) = %v, generic %v", a, got, want)
		}
		for _, b := range es[:64] {
			feMul(&got, a, b)
			feMulGeneric(&want, a, b)
			if got != want {
				t.Fatalf("feMul(%v, %v) = %v, generic %v", a, b, got, want)
			}
		}
	}
}

var sink Element

func BenchmarkMultiply(b *testing.B) {
	x, y := &Element{1, 2, 3, 4, 5}, &Element{5, 4, 3, 2, 1}
	for i := 0; i < b.N; i++ {
		x.Multiply(x, y)
	}
	sink = *x
}

func BenchmarkSquare(b *testing.B) {
	x := &Element{1, 2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		x.Square(x)
	}
	sink = *x
}
