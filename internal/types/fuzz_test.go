package types

import (
	"bytes"
	"testing"

	"massbft/internal/keys"
)

// aliases reports whether sub lies inside buf's backing array.
func aliases(buf, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for i := range buf {
		if &buf[i] == &sub[0] {
			return len(sub) <= len(buf)-i
		}
	}
	return false
}

// FuzzDecodeEntry checks the entry decoder never panics, and for whatever
// decodes: it re-encodes to the identical bytes, so Digest() equals keys.Hash
// of the input (what lets a holder of the bytes hash them and skip the
// re-encode), PeekEntry agrees with it, and the payloads and signatures alias
// the input instead of copying it.
func FuzzDecodeEntry(f *testing.F) {
	e := &Entry{ID: EntryID{GID: 2, Seq: 7}, Term: 9,
		Txns: []Transaction{{Client: 1, Nonce: 2, Payload: []byte("pay"), Sig: bytes.Repeat([]byte{3}, 64)}}}
	f.Add(e.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeEntry(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical bytes
		// (canonical encoding).
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("decode/encode not canonical")
		}
		if got.Digest() != keys.Hash(data) {
			t.Fatalf("Digest() differs from the hash of the decoded bytes")
		}
		hdr, n, err := PeekEntry(data)
		if err != nil || hdr.ID != got.ID || hdr.Term != got.Term || hdr.CommitIndex != got.CommitIndex || n != len(got.Txns) {
			t.Fatalf("PeekEntry = %+v, %d, %v; decoded %+v with %d txns", hdr, n, err, got.ID, len(got.Txns))
		}
		for i := range got.Txns {
			if !aliases(data, got.Txns[i].Payload) || !aliases(data, got.Txns[i].Sig) {
				t.Fatalf("txn %d was copied out of the input", i)
			}
		}
	})
}

// FuzzDecodeTransaction checks the transaction decoder never panics.
func FuzzDecodeTransaction(f *testing.F) {
	tx := Transaction{Client: 5, Nonce: 6, Payload: []byte("p"), Sig: []byte("s")}
	f.Add(tx.AppendEncode(nil))
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeTransaction(data)
		if err != nil {
			return
		}
		enc := got.AppendEncode(nil)
		if len(enc)+len(rest) != len(data) {
			t.Fatalf("consumed bytes inconsistent: %d + %d != %d", len(enc), len(rest), len(data))
		}
	})
}
