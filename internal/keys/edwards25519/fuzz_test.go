package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"math/big"
	"math/rand"
	"testing"
)

// FuzzVerifyAgainstStdlib is the differential test of the validity rule. The
// fuzzer supplies a key seed, a message and a mutation — which of (key,
// message, signature) to start from honest and which bytes to overwrite —
// so it reaches both arbitrary bytes and near-misses of honest signatures.
//
//   - Whatever crypto/ed25519 accepts, the single-signature rule, a batch of
//     one and a batch among 16 valid others accept.
//   - The three always agree with each other.
//   - What they accept and crypto/ed25519 rejects must carry a torsion
//     component on R or on the key ([L]P != O): the cofactor is the only
//     place the two rules differ.
func FuzzVerifyAgainstStdlib(f *testing.F) {
	others, _ := honest(f, 16, 77)
	tors := torsionPoints(f)

	f.Add([]byte("seed"), []byte("message"), uint8(0), uint16(0), []byte{})
	f.Add([]byte("seed"), []byte("message"), uint8(1), uint16(3), []byte{0x01})
	f.Add([]byte("seed2"), []byte(""), uint8(2), uint16(40), []byte{0xff, 0xff})
	f.Add([]byte("k"), []byte("m"), uint8(3), uint16(0), []byte{0x80})
	f.Add([]byte("k"), []byte("m"), uint8(3), uint16(31), []byte{0x80})
	// The identity as key (non-canonically encoded: crypto/ed25519 takes it)
	// with R = O, s = 0, valid for every message.
	f.Add([]byte{}, []byte("any"), uint8(4), uint16(0), append(append([]byte{1}, make([]byte, 30)...), 0x80))
	for i := 0; i < 16; i++ {
		f.Add([]byte("torsion"), []byte("m"), uint8(5+i), uint16(0), []byte{})
	}
	// s replaced by L - 1 (canonical, so the equation decides), L and
	// 2^256 - 1 (both refused by the s < L check): the patch turns the honest
	// s of the all-zero seed's signature into each.
	honestS := ed25519.Sign(ed25519.NewKeyFromSeed(make([]byte, 32)), []byte("m"))[32:]
	for _, s := range []*big.Int{
		new(big.Int).Sub(bigL, big.NewInt(1)), bigL,
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
	} {
		patch := le(s, 32)
		for i := range patch {
			patch[i] ^= honestS[i]
		}
		f.Add([]byte{}, []byte("m"), uint8(1), uint16(32), patch)
	}

	f.Fuzz(func(t *testing.T, seed, msg []byte, mode uint8, at uint16, patch []byte) {
		var s [32]byte
		copy(s[:], seed)
		rng := rand.New(rand.NewSource(int64(len(seed))))
		priv := ed25519.NewKeyFromSeed(s[:])
		pub := []byte(priv.Public().(ed25519.PublicKey))
		sig := ed25519.Sign(priv, msg)
		overwrite := func(dst []byte) []byte {
			out := bytes.Clone(dst)
			for i, b := range patch {
				if len(out) > 0 {
					out[(int(at)+i)%len(out)] ^= b
				}
			}
			return out
		}
		switch {
		case mode == 0: // honest
		case mode == 1:
			sig = overwrite(sig)
		case mode == 2:
			msg = overwrite(msg)
		case mode == 3:
			pub = overwrite(pub)
		case mode == 4: // arbitrary key, R = O, s = 0
			pub = make([]byte, 32)
			copy(pub, patch)
			sig = make([]byte, 64)
			sig[0] = 1
		default: // torsion on R or on the key, then the patch on the signature
			sg := newSigner(t, rng)
			tp := tors[int(mode)%8]
			if mode&8 == 0 {
				pub, sig = sg.signWith(msg, tp, nil)
			} else {
				pub, sig = sg.signWith(msg, nil, tp)
			}
			sig = overwrite(sig)
		}

		std := ed25519.Verify(pub, msg, sig)
		one := verifyOne(pub, msg, sig)
		it := item(pub, msg, sig)
		var v BatchVerifier
		alone := v.VerifyBatch([]Signature{it})
		among := v.VerifyBatch(append(clone(others[:int(at)%17]), append([]Signature{it}, others[int(at)%17:]...)...))
		if one != alone || one != among {
			t.Fatalf("single %v, batch of one %v, among 16 others %v (pub %x msg %x sig %x)", one, alone, among, pub, msg, sig)
		}
		if std && !one {
			t.Fatalf("crypto/ed25519 accepts what the cofactored rule rejects (pub %x msg %x sig %x)", pub, msg, sig)
		}
		if one && !std {
			r, err := new(Point).setCanonicalBytes(sig[:32])
			if err != nil {
				t.Fatalf("accepted an R that does not decode: %x", sig[:32])
			}
			if !hasTorsion(r) && !hasTorsion(it.A) {
				t.Fatalf("accepted, crypto/ed25519 rejects, and neither R nor A has a torsion component (pub %x msg %x sig %x)", pub, msg, sig)
			}
		}
	})
}
