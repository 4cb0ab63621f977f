package edwards25519

import (
	"bytes"
	"crypto/sha512"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"testing"

	"massbft/internal/keys/edwards25519/field"
)

// TestGenerator ties the encoded base point to RFC 8032: y = 4/5, x even.
func TestGenerator(t *testing.T) {
	four := new(field.Element).Add(feOne, feOne)
	four.Add(four, four)
	five := new(field.Element).Add(four, feOne)
	if new(field.Element).Multiply(&generator.y, five).Equal(four) != 1 {
		t.Fatal("generator y is not 4/5")
	}
	if generator.x.IsNegative() != 0 {
		t.Fatal("generator x is not the even root")
	}
	if !isIdentityRef(mulBig(bigL, generator)) || isIdentityRef(mulBig(big.NewInt(8), generator)) {
		t.Fatal("generator does not have order L")
	}
}

// randomPoints decodes hash outputs until n of them are curve points. About
// one encoding in two decodes, and a decoded point has a torsion component
// seven times out of eight.
func randomPoints(n int, domain string) []*Point {
	var ps []*Point
	for i := uint64(0); len(ps) < n; i++ {
		h := sha512.Sum512(binary.LittleEndian.AppendUint64([]byte(domain), i))
		if p, err := new(Point).SetBytes(h[:32]); err == nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// torsionPoints returns the eight points of order dividing 8, each computed
// as [L]Q for decoded Q, in the order they turn up.
func torsionPoints(t testing.TB) []*Point {
	t.Helper()
	var ts []*Point
	seen := map[string]bool{}
	for _, q := range randomPoints(200, "torsion") {
		tp := mulBig(bigL, q)
		if enc := string(tp.Bytes()); !seen[enc] {
			seen[enc] = true
			ts = append(ts, tp)
		}
	}
	if len(ts) != 8 {
		t.Fatalf("found %d torsion points, want 8", len(ts))
	}
	for _, tp := range ts {
		if !isIdentityRef(mulBig(big.NewInt(8), tp)) {
			t.Fatal("[L]Q is not an 8-torsion point")
		}
	}
	return ts
}

func TestGroupLaw(t *testing.T) {
	ps := append(randomPoints(12, "group"), generator, identity)
	ps = append(ps, torsionPoints(t)...)
	for _, p := range ps {
		enc := p.Bytes()
		q, err := new(Point).SetBytes(enc)
		if err != nil || q.Equal(p) != 1 || !bytes.Equal(q.Bytes(), enc) {
			t.Fatalf("encoding round trip of %x", enc)
		}
		if _, err := new(Point).SetCanonicalBytes(enc); err != nil {
			t.Fatalf("canonical encoding %x rejected: %v", enc, err)
		}
		neg := new(Point).Negate(p)
		if !isIdentityRef(new(Point).Add(p, neg)) || !isIdentityRef(new(Point).Subtract(p, p)) {
			t.Fatalf("p - p != O for %x", enc)
		}
		dbl := new(Point).Add(p, p)
		if dbl.Equal(mulBig(big.NewInt(2), p)) != 1 {
			t.Fatalf("doubling of %x", enc)
		}
		eight := new(Point).Set(p)
		if eight.mulByCofactor().Equal(mulBig(big.NewInt(8), p)) != 1 {
			t.Fatalf("[8] of %x", enc)
		}
		if eight.isIdentity() != isIdentityRef(eight) {
			t.Fatalf("isIdentity of [8]%x", enc)
		}
		for _, q := range ps {
			pq, qp := new(Point).Add(p, q), new(Point).Add(q, p)
			if pq.Equal(qp) != 1 {
				t.Fatal("addition does not commute")
			}
			if new(Point).Subtract(pq, q).Equal(p) != 1 {
				t.Fatal("(p + q) - q != p")
			}
			var ac affineCached
			var sum projP1xP1
			if new(Point).fromP1xP1(sum.AddAffine(p, ac.FromP3(pq))).Equal(new(Point).Add(p, pq)) != 1 {
				t.Fatal("mixed addition of a projective point disagrees with Add")
			}
			if new(Point).fromP1xP1(sum.SubAffine(p, ac.FromP3(q))).Equal(new(Point).Subtract(p, q)) != 1 {
				t.Fatal("mixed subtraction disagrees with Subtract")
			}
		}
	}
}

// TestNonCanonicalEncodings pins the two decoders apart on exactly the
// encodings RFC 8032 forbids: SetBytes takes them as crypto/ed25519 takes a
// public key, SetCanonicalBytes refuses them.
func TestNonCanonicalEncodings(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name, enc string
	}{
		{"identity with the sign bit of x = 0 set", "0100000000000000000000000000000000000000000000000000000000000080"},
		{"y = p + 1 (the identity, unreduced)", "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"},
		{"y = p (order 4, unreduced)", "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"},
		{"y = p with the sign bit", "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"},
		{"y = -1 with the sign bit of x = 0 set", "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"},
	} {
		enc := unhex(tc.enc)
		if _, err := new(Point).SetBytes(enc); err != nil {
			t.Errorf("%s: SetBytes rejected it: %v", tc.name, err)
		}
		if _, err := new(Point).SetCanonicalBytes(enc); err == nil {
			t.Errorf("%s: SetCanonicalBytes accepted it", tc.name)
		}
	}
	// Every unreduced y — p + 0 .. p + 18 — is refused whether or not it is on
	// the curve; p - 1 is canonical.
	for d := int64(0); d < 19; d++ {
		y := new(big.Int).Add(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19)), big.NewInt(d))
		if _, err := new(Point).SetCanonicalBytes(le(y, 32)); err == nil {
			t.Errorf("y = p + %d accepted", d)
		}
	}
	if _, err := new(Point).SetCanonicalBytes(unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")); err != nil {
		t.Errorf("y = p - 1 (the point of order 2) refused: %v", err)
	}
	for _, n := range []int{0, 31, 33} {
		if _, err := new(Point).SetCanonicalBytes(make([]byte, n)); err == nil {
			t.Errorf("%d-byte encoding accepted", n)
		}
	}
	// y = 2 is not on the curve.
	if _, err := new(Point).SetBytes(le(big.NewInt(2), 32)); err == nil {
		t.Error("y = 2 decoded")
	}
}
