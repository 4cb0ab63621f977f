package edwards25519

import (
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"math/rand"
	"testing"

	"massbft/internal/keys/edwards25519/field"
)

// The references the tests compare against share nothing with the code under
// test beyond point addition and decoding: scalars are math/big integers and
// multiplication is plain double-and-add. Encoding, subtraction and equality
// of points serve only the references, so they live here.

var bigL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// le returns x as n little-endian bytes.
func le(x *big.Int, n int) []byte {
	b := make([]byte, n)
	x.FillBytes(b)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// fromLE reads little-endian bytes of any length as an integer.
func fromLE(b []byte) *big.Int {
	r := make([]byte, len(b))
	for i := range b {
		r[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(r)
}

// Bytes returns the canonical 32-byte encoding of v, according to RFC 8032,
// Section 5.1.2.
//
// Bytes, Subtract and Equal are the Go distribution's (licence in LICENSE).
func (v *Point) Bytes() []byte {
	checkInitialized(v)

	var zInv, x, y field.Element
	zInv.Invert(&v.z)       // zInv = 1 / Z
	x.Multiply(&v.x, &zInv) // x = X / Z
	y.Multiply(&v.y, &zInv) // y = Y / Z

	out := y.Bytes()
	out[31] |= byte(x.IsNegative() << 7)
	return out
}

// Subtract sets v = p - q, and returns v.
func (v *Point) Subtract(p, q *Point) *Point {
	checkInitialized(p, q)
	qCached := new(projCached).FromP3(q)
	result := new(projP1xP1).Sub(p, qCached)
	return v.fromP1xP1(result)
}

// Equal returns 1 if v is equivalent to u, and 0 otherwise.
func (v *Point) Equal(u *Point) int {
	checkInitialized(v, u)

	var t1, t2, t3, t4 field.Element
	t1.Multiply(&v.x, &u.z)
	t2.Multiply(&u.x, &v.z)
	t3.Multiply(&v.y, &u.z)
	t4.Multiply(&u.y, &v.z)

	return t1.Equal(&t2) & t3.Equal(&t4)
}

// mulBig returns [k]p for any non-negative integer k, reduced or not — so
// [L]p, which tells a point of the prime-order subgroup from one with a
// torsion component, is computable.
func mulBig(k *big.Int, p *Point) *Point {
	acc := new(Point).set(identity)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.add(acc, acc)
		if k.Bit(i) == 1 {
			acc.add(acc, p)
		}
	}
	return acc
}

func isIdentityRef(p *Point) bool { return p.Equal(identity) == 1 }

// hasTorsion reports whether p lies outside the prime-order subgroup.
func hasTorsion(p *Point) bool { return !isIdentityRef(mulBig(bigL, p)) }

func challenge(r, pub, msg []byte) *big.Int {
	h := sha512.New()
	h.Write(r)
	h.Write(pub)
	h.Write(msg)
	k := fromLE(h.Sum(nil))
	return k.Mod(k, bigL)
}

// verifyOne is the single-signature rule VerifyBatch must agree with: RFC
// 8032's cofactored [8][s]B = [8]R + [8][k]A, R decoded strictly, A as
// crypto/ed25519 decodes it, s < L.
func verifyOne(pub, msg, sig []byte) bool {
	if len(pub) != 32 || len(sig) != 64 {
		return false
	}
	a, err := new(Point).SetBytes(pub)
	if err != nil {
		return false
	}
	r, err := new(Point).setCanonicalBytes(sig[:32])
	if err != nil {
		return false
	}
	s := fromLE(sig[32:])
	if s.Cmp(bigL) >= 0 {
		return false
	}
	e := mulBig(s, generator)
	e.Subtract(e, r)
	e.Subtract(e, mulBig(challenge(sig[:32], pub, msg), a))
	return isIdentityRef(mulBig(big.NewInt(8), e))
}

// signer holds an Ed25519 key as integers, so a test can sign by hand.
type signer struct {
	pub    []byte
	priv   ed25519.PrivateKey
	a      *big.Int // the clamped secret scalar
	prefix []byte
	point  *Point
}

func newSigner(t testing.TB, rng *rand.Rand) *signer {
	t.Helper()
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	return signerFor(t, priv)
}

// signerFor holds priv as integers.
func signerFor(t testing.TB, priv ed25519.PrivateKey) *signer {
	t.Helper()
	pub := priv.Public().(ed25519.PublicKey)
	h := sha512.Sum512(priv.Seed())
	h[0] &= 248
	h[31] &= 63
	h[31] |= 64
	a, err := new(Point).SetBytes(pub)
	if err != nil {
		t.Fatal(err)
	}
	return &signer{pub: pub, priv: priv, a: fromLE(h[:32]), prefix: h[32:], point: a}
}

// signWith signs msg as RFC 8032 does, except that R is moved by tr and the
// key the challenge is computed under is moved by ta (either may be nil):
// the signature satisfies R + [k]A - [s]B = tr + [k]ta exactly, so with
// torsion points it passes the cofactored equation and, unless the torsion
// happens to cancel, fails the cofactorless one. It returns the public key
// bytes the signature verifies under, and the signature.
func (sg *signer) signWith(msg []byte, tr, ta *Point) (pub, sig []byte) {
	h := sha512.New()
	h.Write(sg.prefix)
	h.Write(msg)
	r := fromLE(h.Sum(nil))
	r.Mod(r, bigL)
	rp := mulBig(r, generator)
	if tr != nil {
		rp.add(rp, tr)
	}
	pub = sg.pub
	if ta != nil {
		pub = new(Point).add(sg.point, ta).Bytes()
	}
	k := challenge(rp.Bytes(), pub, msg)
	s := k.Mul(k, sg.a)
	s.Add(s, r).Mod(s, bigL)
	return pub, append(rp.Bytes(), le(s, 32)...)
}

// item builds the Signature VerifyBatch takes, decoding the key the way a
// registry would; a key that does not decode yields a nil A, which
// VerifyBatch rejects.
func item(pub, msg, sig []byte) Signature {
	a, err := new(Point).SetBytes(pub)
	if err != nil {
		a = nil
	}
	return Signature{A: a, Pub: pub, Msg: msg, Sig: sig}
}

// honest returns n valid signatures by n different keys over different
// messages, with the signers.
func honest(t testing.TB, n int, seed int64) ([]Signature, []*signer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]Signature, n)
	sgs := make([]*signer, n)
	for i := range sigs {
		sgs[i] = newSigner(t, rng)
		msg := make([]byte, 40+rng.Intn(120))
		rng.Read(msg)
		sigs[i] = Signature{A: sgs[i].point, Pub: sgs[i].pub, Msg: msg, Sig: ed25519.Sign(sgs[i].priv, msg)}
	}
	return sigs, sgs
}

// TestReferences checks the references themselves: the hand signer with no
// torsion reproduces crypto/ed25519's signature byte for byte, and verifyOne
// accepts it.
func TestReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		sg := newSigner(t, rng)
		msg := []byte{byte(i), 1, 2, 3}
		pub, sig := sg.signWith(msg, nil, nil)
		if want := ed25519.Sign(sg.priv, msg); string(sig) != string(want) {
			t.Fatalf("hand signature %x, crypto/ed25519 %x", sig, want)
		}
		if !verifyOne(pub, msg, sig) || !ed25519.Verify(pub, msg, sig) {
			t.Fatal("honest signature rejected")
		}
	}
	if hasTorsion(generator) || hasTorsion(identity) {
		t.Fatal("the generator and the identity have prime order")
	}
}
