package keys

import (
	"bytes"
	"sync"
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
}

// TestClientRegistryVerify: a client signature checked alone — a
// one-signature ClientBatch, the only single check there is.
func TestClientRegistryVerify(t *testing.T) {
	cks, reg, err := GenerateClients(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(reg *ClientRegistry, id uint64, msg, sig []byte) bool {
		b := reg.NewBatch()
		return b.Add(id, msg, sig) && b.Verify()
	}
	msg := ClientRequestMessage(1, 4, []byte("payload"))
	sig := cks[0].Sign(msg)
	if !verify(reg, 1, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if verify(reg, 2, msg, sig) {
		t.Fatal("signature verified under the wrong client")
	}
	if verify(reg, 99, msg, sig) {
		t.Fatal("unknown client verified")
	}
	tampered := append([]byte(nil), sig...)
	tampered[0] ^= 1
	if verify(reg, 1, msg, tampered) {
		t.Fatal("tampered signature verified")
	}
	// Domain separation: a request message never verifies as a receipt.
	rep := ReceiptMessage(nil, 1, 0, 9, []byte("payload"), [32]byte{}, 1)
	if verify(reg, 1, rep, sig) {
		t.Fatal("request signature verified over receipt message")
	}
	reg.SetTrustAll(true)
	if !verify(reg, 1, msg, make([]byte, 64)) {
		t.Fatal("trust-all rejected a 64-byte signature")
	}
	if verify(reg, 1, msg, make([]byte, 10)) {
		t.Fatal("trust-all accepted a short signature")
	}
	if verify(nil, 1, msg, sig) {
		t.Fatal("nil registry verified")
	}
}

// decodedKeys counts the clients whose key has been decoded to a curve point.
func decodedKeys(reg *ClientRegistry) int {
	n := 0
	for i := range reg.clients {
		if reg.clients[i].point.Load() != nil {
			n++
		}
	}
	return n
}

// TestClientBatch: the batch verdict on requests, the registry's lazy key
// decoding (construction decodes nothing, a batch decodes each key it meets
// once), and the trust-all path.
func TestClientBatch(t *testing.T) {
	cks, reg, err := GenerateClients(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := decodedKeys(reg); n != 0 {
		t.Fatalf("GenerateClients decoded %d keys, want 0", n)
	}
	if !reg.Known(1) || !reg.Known(6) || reg.Known(0) || reg.Known(7) || (*ClientRegistry)(nil).Known(1) {
		t.Fatal("Known disagrees with the registry's id range 1..6")
	}

	var msgs, sigs [][]byte
	for i, ck := range cks[:4] {
		msg := ClientRequestMessage(ck.ID, uint64(i), []byte("payload"))
		msgs, sigs = append(msgs, msg), append(sigs, ck.Sign(msg))
	}
	b := reg.NewBatch()
	fill := func() {
		b.Reset()
		for i := range msgs {
			if !b.Add(cks[i].ID, msgs[i], sigs[i]) {
				t.Fatalf("Add refused client %d", cks[i].ID)
			}
		}
	}
	fill()
	if !b.Verify() {
		t.Fatal("valid batch rejected")
	}
	if n := decodedKeys(reg); n != 4 {
		t.Fatalf("%d keys decoded after a batch over 4 clients", n)
	}
	first := reg.clients[0].point.Load()
	fill()
	if !b.Verify() || reg.clients[0].point.Load() != first || decodedKeys(reg) != 4 {
		t.Fatal("a key already decoded was decoded again")
	}
	if got := b.Verified(); got != 8 {
		t.Fatalf("%d signatures verified over two batches of 4, want 8", got)
	}
	// Wrong signer, unknown client, short signature.
	fill()
	b.Add(cks[1].ID, msgs[0], sigs[0])
	if b.Verify() {
		t.Fatal("signature accepted under another client's key")
	}
	fill()
	if b.Add(99, msgs[0], sigs[0]) || b.Add(0, msgs[0], sigs[0]) || b.Add(1, msgs[0], sigs[0][:63]) {
		t.Fatal("Add took an unknown client or a short signature")
	}
	b.Reset()
	if !b.Verify() {
		t.Fatal("the empty batch is valid")
	}

	reg.SetTrustAll(true)
	before := b.Verified()
	if !b.Add(1, msgs[0], make([]byte, 64)) || b.Add(99, msgs[0], make([]byte, 64)) || b.Add(1, msgs[0], make([]byte, 10)) {
		t.Fatal("trust-all is a known-client and length check")
	}
	if !b.Verify() || b.Verified() != before {
		t.Fatal("trust-all did curve work")
	}
}

func TestAppendClientRequestMessage(t *testing.T) {
	want := ClientRequestMessage(3, 9, []byte("payload"))
	got := AppendClientRequestMessage([]byte("prefix"), 3, 9, []byte("payload"))
	if string(got) != "prefix"+string(want) {
		t.Fatalf("append form %q, want prefix + %q", got, want)
	}
}

// TestClientBatchSharedRegistry: the nodes of one process share a registry,
// so batches on several goroutines race to decode the same keys (run under
// -race).
func TestClientBatchSharedRegistry(t *testing.T) {
	cks, reg, err := GenerateClients(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := reg.NewBatch()
			for round := 0; round < 3; round++ {
				b.Reset()
				for _, ck := range cks {
					msg := ClientRequestMessage(ck.ID, uint64(g), nil)
					b.Add(ck.ID, msg, ck.Sign(msg))
				}
				if !b.Verify() {
					t.Error("valid batch rejected")
				}
			}
		}(g)
	}
	wg.Wait()
	if n := decodedKeys(reg); n != len(cks) {
		t.Fatalf("%d keys decoded, want %d", n, len(cks))
	}
}
