// Package gf256 implements arithmetic over the finite field GF(2^8) used by
// the Reed-Solomon codec in package erasure.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage-oriented Reed-Solomon implementations. Scalar multiplication and
// division are driven by exp/log tables built once at package init.
//
// The slice kernels (MulSlice, MulAddSlice and the two-source variants) are
// the codec hot path: they use a full 256x256 product table so each byte
// costs one table load instead of two dependent log/exp loads plus a zero
// branch, and the loops are 8-wide unrolled with capped subslices so the
// compiler drops per-element bounds checks. The original byte-at-a-time
// log/exp kernels live in kernels_test.go as the differential-test oracle.
package gf256

// Polynomial is the primitive polynomial generating the field, without the
// leading x^8 term (0x11d & 0xff = 0x1d retained implicitly during table
// construction).
const Polynomial = 0x11d

// Order is the number of elements in the field.
const Order = 256

var (
	expTable [512]byte // doubled so exp[logA+logB] avoids a mod
	logTable [256]byte

	// mulTable[c][x] = c*x for every pair of field elements. Row c is the
	// per-coefficient lookup table used by the slice kernels: 256 bytes, so
	// the handful of rows a codec geometry touches stay L1-resident. The
	// table is derived from the log/exp tables at init, which keeps the two
	// representations cross-checked by construction (and again, exhaustively,
	// by TestMulTableMatchesLogExp).
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		row := &mulTable[c]
		for s := 1; s < 256; s++ {
			row[s] = expTable[lc+int(logTable[s])]
		}
	}
}

// MulTableRow returns the 256-byte product table for coefficient c:
// row[x] == Mul(c, x). Callers (package erasure) capture the rows for their
// matrix coefficients once per encoder and feed them back to kernels; the
// returned array is shared and must not be modified.
func MulTableRow(c byte) *[256]byte { return &mulTable[c] }

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse, so Add
// doubles as subtraction.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). Div panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. Inv panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator (x=2) raised to the power n, with n reduced
// modulo 255. Exp(0) == 1.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// MulSlice computes dst[i] = c * src[i] for all i. dst and src must have the
// same length.
func MulSlice(c byte, src, dst []byte) {
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	mt := &mulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = mt[s[0]]
		d[1] = mt[s[1]]
		d[2] = mt[s[2]]
		d[3] = mt[s[3]]
		d[4] = mt[s[4]]
		d[5] = mt[s[5]]
		d[6] = mt[s[6]]
		d[7] = mt[s[7]]
	}
	for i := n; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i; this is the inner loop
// of matrix-vector products over the field.
func MulAddSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	mt := &mulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= mt[s[0]]
		d[1] ^= mt[s[1]]
		d[2] ^= mt[s[2]]
		d[3] ^= mt[s[3]]
		d[4] ^= mt[s[4]]
		d[5] ^= mt[s[5]]
		d[6] ^= mt[s[6]]
		d[7] ^= mt[s[7]]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// Mul2Slice computes dst[i] = c1*s1[i] ^ c2*s2[i]: one overwrite pass
// combining two sources. Fusing two sources halves the destination traffic of
// the matrix-row products in package erasure, where every parity byte is a
// sum of dataShards products. All three slices must have the same length.
func Mul2Slice(c1 byte, s1 []byte, c2 byte, s2 []byte, dst []byte) {
	m1, m2 := &mulTable[c1], &mulTable[c2]
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		a := s1[i : i+8 : i+8]
		b := s2[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = m1[a[0]] ^ m2[b[0]]
		d[1] = m1[a[1]] ^ m2[b[1]]
		d[2] = m1[a[2]] ^ m2[b[2]]
		d[3] = m1[a[3]] ^ m2[b[3]]
		d[4] = m1[a[4]] ^ m2[b[4]]
		d[5] = m1[a[5]] ^ m2[b[5]]
		d[6] = m1[a[6]] ^ m2[b[6]]
		d[7] = m1[a[7]] ^ m2[b[7]]
	}
	for i := n; i < len(dst); i++ {
		dst[i] = m1[s1[i]] ^ m2[s2[i]]
	}
}

// MulAdd2Slice computes dst[i] ^= c1*s1[i] ^ c2*s2[i]: the accumulating
// counterpart of Mul2Slice. All three slices must have the same length.
func MulAdd2Slice(c1 byte, s1 []byte, c2 byte, s2 []byte, dst []byte) {
	m1, m2 := &mulTable[c1], &mulTable[c2]
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		a := s1[i : i+8 : i+8]
		b := s2[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= m1[a[0]] ^ m2[b[0]]
		d[1] ^= m1[a[1]] ^ m2[b[1]]
		d[2] ^= m1[a[2]] ^ m2[b[2]]
		d[3] ^= m1[a[3]] ^ m2[b[3]]
		d[4] ^= m1[a[4]] ^ m2[b[4]]
		d[5] ^= m1[a[5]] ^ m2[b[5]]
		d[6] ^= m1[a[6]] ^ m2[b[6]]
		d[7] ^= m1[a[7]] ^ m2[b[7]]
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= m1[s1[i]] ^ m2[s2[i]]
	}
}
