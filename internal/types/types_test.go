package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomEntry(rng *rand.Rand) *Entry {
	e := &Entry{
		ID:          EntryID{GID: rng.Intn(7), Seq: rng.Uint64() % 1000},
		Term:        rng.Uint64() % 10,
		CommitIndex: rng.Uint64() % 1000,
	}
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		t := Transaction{
			Client:  rng.Uint64(),
			Nonce:   rng.Uint64(),
			Payload: make([]byte, rng.Intn(200)),
			Sig:     make([]byte, 64),
		}
		rng.Read(t.Payload)
		rng.Read(t.Sig)
		e.Txns = append(e.Txns, t)
	}
	return e
}

func TestEntryEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		e := randomEntry(rng)
		enc := e.Encode()
		if len(enc) != e.WireSize() {
			t.Fatalf("WireSize %d != encoded len %d", e.WireSize(), len(enc))
		}
		got, err := DecodeEntry(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != e.ID || got.Term != e.Term || got.CommitIndex != e.CommitIndex {
			t.Fatal("header mismatch")
		}
		if len(got.Txns) != len(e.Txns) {
			t.Fatalf("txn count %d != %d", len(got.Txns), len(e.Txns))
		}
		for j := range e.Txns {
			if !reflect.DeepEqual(normalize(got.Txns[j]), normalize(e.Txns[j])) {
				t.Fatalf("txn %d mismatch", j)
			}
		}
	}
}

// normalize maps nil and empty slices to the same representation.
func normalize(tx Transaction) Transaction {
	if len(tx.Payload) == 0 {
		tx.Payload = nil
	}
	if len(tx.Sig) == 0 {
		tx.Sig = nil
	}
	return tx
}

func TestEntryDigestDeterministicAndSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := randomEntry(rng)
	for len(e.Txns) == 0 {
		e = randomEntry(rng)
	}
	d1 := e.Digest()
	d2 := e.Digest()
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	e.Txns[0].Payload = append(e.Txns[0].Payload, 0xff)
	if e.Digest() == d1 {
		t.Fatal("digest insensitive to payload change")
	}
}

func TestDecodeEntryErrors(t *testing.T) {
	if _, err := DecodeEntry(nil); err == nil {
		t.Fatal("decoded empty buffer")
	}
	e := &Entry{ID: EntryID{1, 2}, Txns: []Transaction{{Payload: []byte("abc")}}}
	enc := e.Encode()
	if _, err := DecodeEntry(enc[:len(enc)-1]); err == nil {
		t.Fatal("decoded truncated entry")
	}
	if _, err := DecodeEntry(append(enc, 0)); err == nil {
		t.Fatal("decoded entry with trailing bytes")
	}
}

func TestDecodeTransactionErrors(t *testing.T) {
	if _, _, err := DecodeTransaction([]byte{1, 2, 3}); err == nil {
		t.Fatal("decoded short header")
	}
	tx := Transaction{Payload: bytes.Repeat([]byte{1}, 10), Sig: bytes.Repeat([]byte{2}, 64)}
	enc := tx.AppendEncode(nil)
	if _, _, err := DecodeTransaction(enc[:22]); err == nil {
		t.Fatal("decoded truncated payload")
	}
	if _, _, err := DecodeTransaction(enc[:len(enc)-1]); err == nil {
		t.Fatal("decoded truncated signature")
	}
}

func TestEntryIDString(t *testing.T) {
	id := EntryID{GID: 1, Seq: 10}
	if id.String() != "e1,10" {
		t.Fatalf("String = %q, want e1,10", id.String())
	}
}

func TestPropertyEncodeDecode(t *testing.T) {
	f := func(gid uint8, seq uint64, payload []byte) bool {
		e := &Entry{
			ID:   EntryID{GID: int(gid), Seq: seq},
			Txns: []Transaction{{Client: 7, Nonce: 9, Payload: payload}},
		}
		got, err := DecodeEntry(e.Encode())
		if err != nil {
			return false
		}
		return got.ID == e.ID && bytes.Equal(got.Txns[0].Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeEntryAllocCeiling keeps DecodeEntry at a fixed number of
// allocations (the entry and its transaction slice; payloads and signatures
// alias the input), whatever the transaction count.
func TestDecodeEntryAllocCeiling(t *testing.T) {
	e := &Entry{ID: EntryID{GID: 1, Seq: 2}}
	for i := 0; i < 400; i++ {
		e.Txns = append(e.Txns, Transaction{Client: uint64(i), Payload: make([]byte, 110), Sig: make([]byte, 64)})
	}
	enc := e.Encode()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeEntry(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("DecodeEntry of 400 transactions: %.0f allocations, want <= 3", allocs)
	}
}

// TestDecodedSlicesAreCapacityClipped: appending to a decoded payload must
// reallocate, not overwrite the bytes that follow it in the shared buffer.
func TestDecodedSlicesAreCapacityClipped(t *testing.T) {
	e := &Entry{Txns: []Transaction{{Payload: []byte("ab"), Sig: []byte("cd")}, {Payload: []byte("ef")}}}
	enc := e.Encode()
	want := append([]byte(nil), enc...)
	got, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Txns[0].Payload, 0xff)
	_ = append(got.Txns[0].Sig, 0xff)
	if !bytes.Equal(enc, want) {
		t.Fatal("append to a decoded slice wrote into the source buffer")
	}
}
