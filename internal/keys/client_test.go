package keys

import (
	"bytes"
	"testing"
)

func TestGenerateClientsDeterministic(t *testing.T) {
	a, _, err := GenerateClients(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateClients(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].Public, b[i].Public) {
			t.Fatalf("client %d keys differ across same-seed generations", i+1)
		}
	}
	c, _, _ := GenerateClients(5, 100)
	if bytes.Equal(a[0].Public, c[0].Public) {
		t.Fatal("different seeds produced identical keys")
	}
	// Single-key re-derivation matches the registry generation.
	ck, err := ClientKeyFor(3, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ck.ID != 3 || !bytes.Equal(ck.Public, a[2].Public) {
		t.Fatal("ClientKeyFor diverged from GenerateClients")
	}
	if _, err := ClientKeyFor(0, 5, 99); err == nil {
		t.Fatal("client id 0 accepted")
	}
	if _, err := ClientKeyFor(6, 5, 99); err == nil {
		t.Fatal("out-of-range client id accepted")
	}
}

func TestClientRegistryVerify(t *testing.T) {
	cks, reg, err := GenerateClients(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	msg := ClientRequestMessage(1, 4, []byte("payload"))
	sig := cks[0].Sign(msg)
	if !reg.Verify(1, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if reg.Verify(2, msg, sig) {
		t.Fatal("signature verified under the wrong client")
	}
	if reg.Verify(99, msg, sig) {
		t.Fatal("unknown client verified")
	}
	tampered := append([]byte(nil), sig...)
	tampered[0] ^= 1
	if reg.Verify(1, msg, tampered) {
		t.Fatal("tampered signature verified")
	}
	// Domain separation: a request message never verifies as a receipt.
	rep := ReceiptMessage(nil, 1, 0, 9, []byte("payload"), [32]byte{}, 1)
	if reg.Verify(1, rep, sig) {
		t.Fatal("request signature verified over receipt message")
	}
	reg.SetTrustAll(true)
	if !reg.Verify(1, msg, make([]byte, 64)) {
		t.Fatal("trust-all rejected a 64-byte signature")
	}
	if reg.Verify(1, msg, make([]byte, 10)) {
		t.Fatal("trust-all accepted a short signature")
	}
	if (*ClientRegistry)(nil).Verify(1, msg, sig) {
		t.Fatal("nil registry verified")
	}
}
