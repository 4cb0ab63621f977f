package edwards25519

import (
	"crypto/ed25519"
	"testing"
)

// TestTorsionAgreement's fixtures, for the external test in
// agreement_test.go, which signs with keys a client registry already holds.

// TorsionPoints returns the eight small-order points.
func TorsionPoints(t testing.TB) []*Point { return torsionPoints(t) }

// SignMovingR signs msg with priv as RFC 8032 does, except that R is moved
// by tr (signer.signWith).
func SignMovingR(t testing.TB, priv ed25519.PrivateKey, msg []byte, tr *Point) []byte {
	_, sig := signerFor(t, priv).signWith(msg, tr, nil)
	return sig
}
