package edwards25519

import (
	"crypto/sha512"
	"encoding/binary"
	"hash"
)

// Signature is one Ed25519 signature to check: Sig over Msg under the public
// key whose 32-byte encoding is Pub and whose decoded point is A (the caller
// decodes a key once, with SetBytes, however many signatures it checks).
type Signature struct {
	A             *Point
	Pub, Msg, Sig []byte
}

// BatchVerifier checks Ed25519 signatures a batch at a time and keeps its
// scratch between batches, so steady-state verification allocates nothing.
// The zero value is ready; a BatchVerifier is not safe for concurrent use.
type BatchVerifier struct {
	points  []Point  // B, A_1..A_n, R_1..R_n
	scalars []Scalar // -Σ z_i·s_i, z_1·k_1..z_n·k_n, z_1..z_n
	ms      multiScalar
	digest  hash.Hash // k_i = SHA-512(R_i ‖ A_i ‖ M_i)
	script  hash.Hash // the transcript the coefficients z_i are expanded from
	sum     [sha512.Size]byte
	decoded uint64 // signature points (R) decoded so far, for the cost tests
}

// VerifyBatch reports whether every signature of the batch is valid under
// RFC 8032 Section 5.1.7's cofactored equation, [8][s]B = [8]R + [8][k]A with
// k = SHA-512(R ‖ A ‖ M), R decoded strictly (SetCanonicalBytes) and s < L.
// It checks them all in one multi-scalar multiplication,
//
//	[8](-(Σ z_i·s_i)B + Σ z_i·R_i + Σ (z_i·k_i)A_i) = O,
//
// with 128-bit coefficients z_i expanded from a SHA-512 transcript of the
// whole batch (every R_i, s_i, A_i and k_i), so the verdict is a function of
// the batch and of nothing else: no random source, no dependence on what the
// verifier saw before. A batch of valid signatures always passes — each
// term's error R_i + k_i·A_i - s_i·B lies in the 8-torsion, which the
// cofactor clears whatever z_i is — and a batch with an invalid one passes
// with probability 2^-128 over the transcript hash. The cofactor is what
// makes that exact: under the cofactorless equation crypto/ed25519 checks, a
// signature whose R or A carries a torsion component can pass or fail
// depending on its coefficient and its neighbours. Every signature
// crypto/ed25519 accepts is valid here. A failed batch does not say which
// signature failed. The empty batch is valid.
func (v *BatchVerifier) VerifyBatch(sigs []Signature) bool {
	n := len(sigs)
	if n == 0 {
		return true
	}
	if v.digest == nil {
		v.digest, v.script = sha512.New(), sha512.New()
	}
	if cap(v.points) < 2*n+1 {
		v.points = make([]Point, 2*n+1)
		v.scalars = make([]Scalar, 2*n+1)
	}
	points, scalars := v.points[:2*n+1], v.scalars[:2*n+1]
	points[0] = *generator
	as, rs := points[1:1+n], points[1+n:]
	ks, zs := scalars[1:1+n], scalars[1+n:]

	// First pass: decode, hash, and absorb everything into the transcript.
	// zs[i] holds s_i until the coefficients exist.
	v.script.Reset()
	binary.LittleEndian.PutUint64(v.sum[:8], uint64(n))
	v.script.Write(v.sum[:8])
	for i := range sigs {
		sg := &sigs[i]
		if sg.A == nil || len(sg.Pub) != 32 || len(sg.Sig) != 64 {
			return false
		}
		if _, err := zs[i].SetCanonicalBytes(sg.Sig[32:]); err != nil {
			return false
		}
		v.decoded++
		if _, err := rs[i].SetCanonicalBytes(sg.Sig[:32]); err != nil {
			return false
		}
		as[i] = *sg.A

		v.digest.Reset()
		v.digest.Write(sg.Sig[:32])
		v.digest.Write(sg.Pub)
		v.digest.Write(sg.Msg)
		k := v.digest.Sum(v.sum[:0])
		ks[i].SetUniformBytes(k)

		v.script.Write(sg.Sig)
		v.script.Write(sg.Pub)
		v.script.Write(k)
	}

	// Second pass: z_i is the i-th 16 bytes of SHA-512(seed ‖ 0), SHA-512(seed
	// ‖ 1), ... with seed the transcript's hash.
	var block [sha512.Size + 8]byte
	var z [sha512.Size]byte
	copy(block[:], v.script.Sum(v.sum[:0]))
	base := &scalars[0]
	*base = Scalar{}
	for i := range zs {
		if i%4 == 0 {
			binary.LittleEndian.PutUint64(block[sha512.Size:], uint64(i/4))
			z = sha512.Sum512(block[:])
		}
		s := zs[i]
		zs[i].setShortBytes(z[i%4*16 : i%4*16+16])
		base.MultiplyAdd(&zs[i], &s, base)
		ks[i].Multiply(&zs[i], &ks[i])
	}
	base.Negate(base)

	var sum Point
	v.ms.mult(&sum, scalars, points)
	return sum.mulByCofactor().isIdentity()
}

// mulByCofactor sets v = [8]v and returns v.
func (v *Point) mulByCofactor() *Point {
	var p projP2
	var d projP1xP1
	p.FromP3(v)
	p.FromP1xP1(d.Double(&p))
	p.FromP1xP1(d.Double(&p))
	return v.fromP1xP1(d.Double(&p))
}

// isIdentity reports whether v is the neutral element, x = 0 and y = 1.
func (v *Point) isIdentity() bool {
	return v.x.Equal(feZero) == 1 && v.y.Equal(&v.z) == 1
}
