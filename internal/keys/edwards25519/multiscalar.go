package edwards25519

import "encoding/binary"

// multiScalar computes Σ scalars[i]·points[i] in variable time and keeps its
// scratch between calls, so a caller that multiplies batch after batch
// allocates only while the batches grow. The zero value is ready; a
// multiScalar is not safe for concurrent use.
//
// Two algorithms, chosen from the point count alone. Few points: Straus'
// interleaving — one shared chain of 255 doublings, each point adding an odd
// multiple of itself (a table of eight) at the nonzero digits of its width-5
// non-adjacent form, about a sixth of the positions. Many points: Pippenger's
// buckets — per c-bit window every point is added once into the bucket of its
// digit and the buckets are summed with 2·2^(c-1) more additions, so the
// per-point cost is one cheap mixed addition per window and no table. The
// doubling chain and the tables make Straus cheaper below strausMax points;
// above it the tables outgrow the cache and the buckets win.
type multiScalar struct {
	nafs   [][256]int8     // Straus: one non-adjacent form per point
	tables [][8]projCached // Straus: P, 3P, ..., 15P per point
	digits []int8          // Pippenger: signed radix-2^c digits, window-major
	affine []affineCached  // Pippenger: the points, ready for mixed addition
	bucket []Point         // Pippenger: bucket b holds the points of digit ±(b+1)
	filled []bool          // Pippenger: bucket b has received a point
}

// strausMax is the largest point count Straus handles. Measured on amd64 with
// batch-shaped input (BenchmarkMultiScalar), the two cross near 97 points —
// 48 signatures: 17.4 against 18.2 µs per signature at 81 points, 18.0
// against 17.7 at 97.
const strausMax = 96

// mult sets v = Σ scalars[i]·points[i] and returns v. The slices must have
// equal length; none of the points may be v.
func (m *multiScalar) mult(v *Point, scalars []scalar, points []Point) *Point {
	if len(scalars) != len(points) {
		panic("edwards25519: multiScalar.mult called with mismatched lengths")
	}
	if len(points) <= strausMax {
		return m.straus(v, scalars, points)
	}
	return m.pippenger(v, scalars, points, pippengerWindow(len(points)))
}

func (m *multiScalar) straus(v *Point, scalars []scalar, points []Point) *Point {
	n := len(points)
	if cap(m.nafs) < n {
		m.nafs = make([][256]int8, n)
		m.tables = make([][8]projCached, n)
	}
	nafs, tables := m.nafs[:n], m.tables[:n]

	var p2 Point
	var sum projP1xP1
	top := -1
	for i := range points {
		nafs[i] = scalars[i].nonAdjacentForm(5)
		for j := 255; j > top; j-- {
			if nafs[i][j] != 0 {
				top = j
				break
			}
		}
		// Odd multiples: table[k] = (2k+1)P.
		t := &tables[i]
		t[0].FromP3(&points[i])
		p2.add(&points[i], &points[i])
		for k := 1; k < 8; k++ {
			v.fromP1xP1(sum.Add(&p2, &t[k-1]))
			t[k].FromP3(v)
		}
	}

	var acc projP2
	acc.Zero()
	for j := top; j >= 0; j-- {
		sum.Double(&acc)
		for i := range nafs {
			if d := nafs[i][j]; d > 0 {
				v.fromP1xP1(&sum)
				sum.Add(v, &tables[i][d/2])
			} else if d < 0 {
				v.fromP1xP1(&sum)
				sum.Sub(v, &tables[i][-d/2])
			}
		}
		acc.FromP1xP1(&sum)
	}
	return v.fromP2(&acc)
}

// pippengerWindow returns the window width that minimises the additions of a
// bucketed multiplication of n points: per window, n into the buckets and
// twice the 2^(c-1) buckets to sum them.
func pippengerWindow(n int) uint {
	best, bestCost := uint(4), int(^uint(0)>>1)
	for c := uint(4); c <= 8; c++ {
		if cost := windows(c) * (n + 1<<c); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// windows is the number of radix-2^c digits of a reduced scalar (253 bits).
func windows(c uint) int { return (253 + int(c) - 1) / int(c) }

func (m *multiScalar) pippenger(v *Point, scalars []scalar, points []Point, c uint) *Point {
	n, nw := len(points), windows(c)
	if cap(m.affine) < n {
		m.affine = make([]affineCached, n)
	}
	if cap(m.digits) < n*nw {
		m.digits = make([]int8, n*nw)
	}
	if cap(m.bucket) < 1<<(c-1) {
		m.bucket = make([]Point, 1<<(c-1))
		m.filled = make([]bool, 1<<(c-1))
	}
	affine, digits := m.affine[:n], m.digits[:n*nw]
	bucket, filled := m.bucket[:1<<(c-1)], m.filled[:1<<(c-1)]

	for i := range points {
		affine[i].FromP3(&points[i])
		scalars[i].signedDigits(c, digits[i:], n)
	}

	// Horner over the windows, most significant first: v = v·2^c + window sum.
	v.set(identity)
	var acc projP2
	var sum projP1xP1
	var running, window Point
	for w := nw - 1; w >= 0; w-- {
		acc.FromP3(v)
		for i := uint(1); i < c; i++ {
			acc.FromP1xP1(sum.Double(&acc))
		}
		v.fromP1xP1(sum.Double(&acc))

		// A bucket's first point is copied in, not added to the identity:
		// with a few hundred points over 2^(c-1) buckets that is a tenth of
		// the additions. top is the highest bucket in use.
		clear(filled)
		top := -1
		for i, digit := range digits[w*n : (w+1)*n] {
			d := int(digit)
			if d == 0 {
				continue
			}
			k := max(d, -d) - 1
			b := &bucket[k]
			switch {
			case filled[k] && d > 0:
				b.fromP1xP1(sum.AddAffine(b, &affine[i]))
			case filled[k]:
				b.fromP1xP1(sum.SubAffine(b, &affine[i]))
			case d > 0:
				*b = points[i]
			default:
				b.negate(&points[i])
			}
			if !filled[k] {
				filled[k], top = true, max(top, k)
			}
		}

		// Σ (b+1)·bucket[b] as the sum of the running suffix sums.
		running.set(identity)
		window.set(identity)
		for b := top; b >= 0; b-- {
			if filled[b] {
				running.add(&running, &bucket[b])
			}
			window.add(&window, &running)
		}
		v.add(v, &window)
	}
	return v
}

// signedDigits writes s in signed radix 2^c, least significant digit first,
// to out[0], out[stride], ...: windows(c) digits in [-2^(c-1), 2^(c-1)), the
// last one taking the final carry as it is (it fits for 3 <= c <= 8, because a
// reduced scalar has 253 bits and c does not divide 253).
func (s *scalar) signedDigits(c uint, out []int8, stride int) {
	var limbs [5]uint64
	for i := 0; i < 4; i++ {
		limbs[i] = binary.LittleEndian.Uint64(s[i*8:])
	}
	nw := windows(c)
	radix, mask := uint64(1)<<c, uint64(1)<<c-1
	carry := uint64(0)
	for w := 0; w < nw; w++ {
		pos := uint(w) * c
		limb, bit := pos/64, pos%64
		raw := limbs[limb] >> bit
		if bit+c > 64 {
			raw |= limbs[limb+1] << (64 - bit)
		}
		digit := raw&mask + carry
		carry = 0
		if digit >= radix/2 && w < nw-1 {
			carry = 1
			out[w*stride] = int8(int64(digit) - int64(radix))
		} else {
			out[w*stride] = int8(digit)
		}
	}
}
