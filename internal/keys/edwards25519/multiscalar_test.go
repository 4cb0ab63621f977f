package edwards25519

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// msCase builds n (scalar, point) pairs: decoded points with and without
// torsion, some projective (sums), the identity, repeats, and scalars that are
// full-width, 128-bit, zero, one and L - 1.
func msCase(t testing.TB, n int, rng *rand.Rand) ([]Scalar, []Point, []*big.Int) {
	t.Helper()
	pool := randomPoints(8, "multiscalar")
	pool = append(pool, generator, identity, new(Point).Add(pool[0], pool[1]), new(Point).Add(generator, generator))
	one := big.NewInt(1)
	scalars, points, ks := make([]Scalar, n), make([]Point, n), make([]*big.Int, n)
	for i := range points {
		points[i] = *pool[rng.Intn(len(pool))]
		switch rng.Intn(8) {
		case 0:
			ks[i] = new(big.Int)
		case 1:
			ks[i] = new(big.Int).Set(one)
		case 2:
			ks[i] = new(big.Int).Sub(bigL, one)
		case 3, 4:
			ks[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(one, 128))
		default:
			ks[i] = new(big.Int).Rand(rng, bigL)
		}
		scalars[i] = *setScalar(t, ks[i])
	}
	return scalars, points, ks
}

func naiveSum(ks []*big.Int, points []Point) *Point {
	sum := new(Point).Set(identity)
	for i := range points {
		sum.Add(sum, mulBig(ks[i], &points[i]))
	}
	return sum
}

// TestMultiScalarAgainstNaive runs 0 to 40 points (and a few counts on both
// sides of the Straus limit) through the dispatcher, through Straus and
// through Pippenger at every window width, against the double-and-add sum.
// One multiScalar serves every case, so stale scratch would show.
func TestMultiScalarAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m multiScalar
	counts := []int{strausMax - 1, strausMax, strausMax + 1, 130}
	for n := 0; n <= 40; n++ {
		counts = append(counts, n)
	}
	for _, n := range counts {
		scalars, points, ks := msCase(t, n, rng)
		want := naiveSum(ks, points)
		var got Point
		if m.mult(&got, scalars, points).Equal(want) != 1 {
			t.Fatalf("mult of %d points disagrees with the naive sum", n)
		}
		if m.straus(&got, scalars, points).Equal(want) != 1 {
			t.Fatalf("straus of %d points disagrees with the naive sum", n)
		}
		for c := uint(4); c <= 8; c++ {
			if m.pippenger(&got, scalars, points, c).Equal(want) != 1 {
				t.Fatalf("pippenger(c=%d) of %d points disagrees with the naive sum", c, n)
			}
		}
	}
}

// TestMultiScalarDegenerate: all-zero scalars, all-identity points and one
// point repeated with scalars that cancel all give the identity.
func TestMultiScalarDegenerate(t *testing.T) {
	var m multiScalar
	p := randomPoints(1, "degenerate")[0]
	for _, n := range []int{1, 5, strausMax + 5} {
		scalars, points := make([]Scalar, n), make([]Point, n)
		for i := range points {
			points[i] = *p
		}
		var got Point
		if !m.mult(&got, scalars, points).isIdentity() {
			t.Fatalf("%d zero scalars: not the identity", n)
		}
		for i := range points {
			points[i] = *identity
			scalars[i] = *setScalar(t, big.NewInt(int64(i)+5))
		}
		if !m.mult(&got, scalars, points).isIdentity() {
			t.Fatalf("%d identity points: not the identity", n)
		}
	}
	// k·P + (L - k)·P = O.
	k := big.NewInt(123456789)
	scalars := []Scalar{*setScalar(t, k), *setScalar(t, new(big.Int).Sub(bigL, k))}
	points := []Point{*generator, *generator}
	var got Point
	if !m.straus(&got, scalars, points).isIdentity() || !m.pippenger(&got, scalars, points, 5).isIdentity() {
		t.Fatal("cancelling scalars: not the identity")
	}
}

func TestPippengerWindowGrows(t *testing.T) {
	prev := uint(0)
	for _, n := range []int{strausMax + 1, 200, 419, 801, 5000, 100000} {
		c := pippengerWindow(n)
		if c < prev || c < 4 || c > 8 {
			t.Fatalf("window for %d points is %d after %d", n, c, prev)
		}
		prev = c
	}
}

// batchShaped builds the input VerifyBatch hands to mult for n signatures:
// n+1 full-width scalars, n 128-bit ones, all points freshly decoded.
func batchShaped(n int) ([]Scalar, []Point) {
	rng := rand.New(rand.NewSource(int64(n)))
	pool := randomPoints(64, "bench")
	scalars, points := make([]Scalar, 2*n+1), make([]Point, 2*n+1)
	var buf [64]byte
	for i := range points {
		points[i] = *pool[rng.Intn(len(pool))]
		rng.Read(buf[:])
		if i > n {
			scalars[i].setShortBytes(buf[:16])
		} else {
			scalars[i].SetUniformBytes(buf[:])
		}
	}
	return scalars, points
}

// BenchmarkMultiScalar is what strausMax was read from: both algorithms on
// batch-shaped input at point counts around the limit (2n+1 points for n
// signatures).
func BenchmarkMultiScalar(b *testing.B) {
	for _, n := range []int{1, 4, 16, 32, 48, 64, 104, 209} {
		scalars, points := batchShaped(n)
		var m multiScalar
		var v Point
		b.Run(fmt.Sprintf("straus/points=%d", len(points)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.straus(&v, scalars, points)
			}
		})
		b.Run(fmt.Sprintf("pippenger/points=%d", len(points)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.pippenger(&v, scalars, points, pippengerWindow(len(points)))
			}
		})
	}
}
