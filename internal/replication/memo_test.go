package replication

import (
	"bytes"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/metrics"
)

// TestRebuildMemoDecodesABucketOnce: two receivers sharing a memo decode the
// bucket once between them, and both get the certified bytes.
func TestRebuildMemoDecodesABucketOnce(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo := NewRebuildMemo(4)
	var counts metrics.Counts
	var got []Rebuilt
	for r := 0; r < 2; r++ {
		c := collectorFor(f, &got)
		c.SetMemo(memo)
		c.SetCounts(&counts)
		for i := 0; i < 4; i++ {
			msgs := f.singles(t, f.encoded, i, f.cert)
			for k := range msgs {
				c.AddBatch(&msgs[k])
			}
		}
	}
	if len(got) != 2 || counts.RebuildMemoMisses != 1 || memo.Len() != 1 {
		t.Fatalf("delivered %d, memo misses %d, memo len %d; want 2, 1, 1", len(got), counts.RebuildMemoMisses, memo.Len())
	}
	if &got[0].Enc[0] != &got[1].Enc[0] {
		t.Fatal("the second receiver did not share the memoized bytes")
	}
}

// seeded returns a memo seeded the way an honest sender seeds it, and the
// bytes it was seeded with: a canonical encoding of the fixture entry of its
// own, under the certified digest.
func seeded(f *fixture) (*RebuildMemo, []byte) {
	enc := f.entry.Encode()
	memo := NewRebuildMemo(4)
	Seed(memo, f.encoded, f.entry, enc, f.cert.Digest)
	return memo, enc
}

// allSingles is every sender's assignment under enc, cut into one-index
// batches carrying cert.
func (f *fixture) allSingles(t *testing.T, enc *Encoded, cert *keys.Certificate) []ChunkBatch {
	var out []ChunkBatch
	for i := 0; i < f.plan.SenderNodes; i++ {
		out = append(out, f.singles(t, enc, i, cert)...)
	}
	return out
}

// TestSeededCollectorMatchesDecoding: a collector whose memo the sender
// seeded delivers what a collector decoding the chunks itself delivers —
// equal bytes, digest and certificate — in the seed's own buffer, decoding
// nothing. A second seed of the same entry, by another member of the sender
// group, leaves the first in place.
func TestSeededCollectorMatchesDecoding(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo, enc := seeded(f)
	Seed(memo, f.encoded, f.entry, f.entry.Encode(), f.cert.Digest)
	var counts metrics.Counts
	var fromSeed, fromDecode []Rebuilt
	sc := collectorFor(f, &fromSeed)
	sc.SetMemo(memo)
	sc.SetCounts(&counts)
	dc := collectorFor(f, &fromDecode)
	for _, b := range f.allSingles(t, f.encoded, f.cert) {
		sc.AddBatch(&b)
		dc.AddBatch(&b)
	}
	if len(fromSeed) != 1 || len(fromDecode) != 1 {
		t.Fatalf("delivered %d seeded, %d decoded; want 1 and 1", len(fromSeed), len(fromDecode))
	}
	s, d := fromSeed[0], fromDecode[0]
	if !bytes.Equal(s.Enc, d.Enc) || keys.Hash(s.Enc) != f.cert.Digest || s.Entry.Digest() != d.Entry.Digest() ||
		!certEqual(s.Cert, d.Cert) {
		t.Fatal("the seeded collector delivered other bytes, digest or certificate than the decoding one")
	}
	if &s.Enc[0] != &enc[0] {
		t.Fatal("the seeded collector delivered a copy, not the seeded bytes")
	}
	if counts.RebuildMemoMisses != 0 {
		t.Fatalf("rebuild-memo-misses %d under a seed", counts.RebuildMemoMisses)
	}
}

// TestNilMemoIsNone: a process with one collector has no rebuild memo. Seed
// takes nothing into a nil memo, and a collector on one decodes the bucket
// itself, counting no miss.
func TestNilMemoIsNone(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	Seed(nil, f.encoded, f.entry, f.entry.Encode(), f.cert.Digest)
	var counts metrics.Counts
	var got []Rebuilt
	c := collectorFor(f, &got)
	c.SetMemo(nil)
	c.SetCounts(&counts)
	for _, b := range f.allSingles(t, f.encoded, f.cert) {
		c.AddBatch(&b)
	}
	if len(got) != 1 || keys.Hash(got[0].Enc) != f.cert.Digest || counts.RebuildMemoMisses != 0 {
		t.Fatalf("delivered %d, misses %d; want the certified entry once and no miss", len(got), counts.RebuildMemoMisses)
	}
}

// TestSeedNotTakenForAnotherDataLen: chunks under the seeded root that claim
// another DataLen are another bucket: they miss the seed, decode to garbage
// and are banned, and the seed still serves the next receiver.
func TestSeedNotTakenForAnotherDataLen(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo, enc := seeded(f)
	var counts metrics.Counts
	var got []Rebuilt
	c := collectorFor(f, &got)
	c.SetMemo(memo)
	c.SetCounts(&counts)
	msgs := f.allSingles(t, f.encoded, f.cert)
	for k := 0; k < f.plan.Data; k++ {
		liar := msgs[k]
		liar.DataLen -= 7
		c.AddBatch(&liar)
	}
	if _, failed, _ := c.Stats(); len(got) != 0 || failed != 1 || counts.RebuildMemoMisses != 1 {
		t.Fatalf("a wrong DataLen: delivered %d, failed %d, misses %d; want 0, 1, 1", len(got), failed, counts.RebuildMemoMisses)
	}
	next := collectorFor(f, &got)
	next.SetMemo(memo)
	next.SetCounts(&counts)
	for _, b := range msgs {
		next.AddBatch(&b)
	}
	if len(got) != 1 || &got[0].Enc[0] != &enc[0] || counts.RebuildMemoMisses != 1 {
		t.Fatalf("the next receiver: delivered %d, misses %d; want the seeded bytes and no miss", len(got), counts.RebuildMemoMisses)
	}
}

// TestTamperedEncodingBannedBesideSeed: a tampered encoding of the seeded
// entry has a root of its own, so the honest seed does not vouch for it: it is
// decoded, fails its certificate and is banned, and the honest chunks still
// deliver the seeded bytes.
func TestTamperedEncodingBannedBesideSeed(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo, enc := seeded(f)
	var counts metrics.Counts
	var got []Rebuilt
	c := collectorFor(f, &got)
	c.SetMemo(memo)
	c.SetCounts(&counts)
	evil := f.allSingles(t, evilEncoding(t, f), f.cert)
	for k := 0; k < f.plan.Data; k++ {
		c.AddBatch(&evil[k])
	}
	if _, failed, _ := c.Stats(); len(got) != 0 || failed != 1 || counts.RebuildMemoMisses != 1 {
		t.Fatalf("tampered chunks: delivered %d, failed %d, misses %d; want 0, 1, 1", len(got), failed, counts.RebuildMemoMisses)
	}
	for _, b := range f.allSingles(t, f.encoded, f.cert) {
		c.AddBatch(&b)
	}
	if len(got) != 1 || &got[0].Enc[0] != &enc[0] {
		t.Fatalf("honest chunks after the tampered ones: delivered %d, want the seeded bytes", len(got))
	}
}

// TestSeededBucketNeedsItsOwnCertificate: a seed vouches for the bytes, not
// for a receiver's certificates. Chunks carrying only a mangled certificate
// wait, chunks carrying only a certificate over another digest are banned,
// and neither verdict reaches the memo: the next receiver, holding the honest
// certificate, is still served the seed.
func TestSeededBucketNeedsItsOwnCertificate(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	memo, enc := seeded(f)
	mangled := *f.cert
	mangled.Sigs = append([]keys.Signature(nil), f.cert.Sigs...)
	mangled.Sigs[0].Sig = append([]byte(nil), f.cert.Sigs[0].Sig...)
	mangled.Sigs[0].Sig[0] ^= 0xff
	other := keys.Hash([]byte("another entry"))
	foreign := &keys.Certificate{Group: 0, Digest: other}
	for j := 0; j < f.reg.QuorumSize(0); j++ {
		foreign.Sigs = append(foreign.Sigs, keys.SignCertificate(f.pairs[0][j], 0, other))
	}
	var counts metrics.Counts
	for _, tc := range []struct {
		name   string
		cert   *keys.Certificate
		failed int
	}{
		{"mangled certificate", &mangled, 0},
		{"certificate over another digest", foreign, 1},
	} {
		var got []Rebuilt
		c := collectorFor(f, &got)
		c.SetMemo(memo)
		c.SetCounts(&counts)
		msgs := f.allSingles(t, f.encoded, tc.cert)
		for k := 0; k < f.plan.Data; k++ {
			c.AddBatch(&msgs[k])
		}
		if _, failed, _ := c.Stats(); len(got) != 0 || failed != tc.failed {
			t.Fatalf("%s: delivered %d, failed %d; want 0, %d", tc.name, len(got), failed, tc.failed)
		}
	}
	var got []Rebuilt
	c := collectorFor(f, &got)
	c.SetMemo(memo)
	c.SetCounts(&counts)
	for _, b := range f.allSingles(t, f.encoded, f.cert) {
		c.AddBatch(&b)
	}
	if len(got) != 1 || &got[0].Enc[0] != &enc[0] || counts.RebuildMemoMisses != 0 {
		t.Fatalf("the honest receiver: delivered %d, misses %d; want the seeded bytes and no miss", len(got), counts.RebuildMemoMisses)
	}
}
