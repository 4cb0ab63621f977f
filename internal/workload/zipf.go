package workload

import (
	"math"
	"math/rand"
	"sync"

	"massbft/internal/fifo"
)

// Zipfian draws from a Zipf distribution with exponent theta in (0,1), the
// YCSB "zipfian" generator (Gray et al.'s algorithm, the same one the YCSB
// reference driver uses). The standard library's rand.Zipf requires s > 1 and
// cannot express YCSB's theta = 0.99, hence this implementation.
type Zipfian struct {
	rng   *rand.Rand
	items uint64
	theta float64

	alpha, zetan, eta, zeta2 float64
}

// NewZipfian creates a generator over [0, items) with the given skew.
// theta must be in (0, 1); YCSB's default is 0.99.
func NewZipfian(rng *rand.Rand, items uint64, theta float64) *Zipfian {
	z := &Zipfian{rng: rng, items: items, theta: theta}
	z.zeta2 = zeta(2, theta)
	z.zetan = zeta(items, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetas memoizes the newest 8 zeta sums. A sum costs one math.Pow
// per item — 43 ms at YCSB's million rows — while a process builds a
// generator per group, node and client over the same table. The lock is held
// across the sum, so generators built at once compute it once.
var zetas = struct {
	sync.Mutex
	*fifo.Memo[zetaArgs, float64]
}{Memo: fifo.NewMemo[zetaArgs, float64](8)}

type zetaArgs struct {
	n     uint64
	theta float64
}

func zeta(n uint64, theta float64) float64 {
	zetas.Lock()
	defer zetas.Unlock()
	args := zetaArgs{n, theta}
	if sum, ok := zetas.Get(args); ok {
		return sum
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetas.Put(args, sum)
	return sum
}

// Next returns the next sample in [0, items), most-probable value first.
// Values are scrambled by the caller if uniform spreading of hot keys is
// desired (YCSB hashes them; our workloads use the raw rank so tests can
// assert the skew directly).
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
