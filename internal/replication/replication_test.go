package replication

import (
	"bytes"
	"math/rand"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/types"
)

// fixture builds a 2-group cluster (sender group 0 with n1 nodes, receiver
// group 1 with n2 nodes), a certified entry from group 0, and its encoding.
type fixture struct {
	pairs   [][]*keys.KeyPair
	reg     *keys.Registry
	plan    *plan.Plan
	entry   *types.Entry
	cert    *keys.Certificate
	encoded *Encoded
}

func newFixture(t *testing.T, n1, n2, txns int) *fixture {
	t.Helper()
	pairs, reg, err := keys.GenerateCluster([]int{n1, n2}, 99)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.New(n1, n2)
	if err != nil {
		t.Fatal(err)
	}
	e := &types.Entry{ID: types.EntryID{GID: 0, Seq: 10}}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < txns; i++ {
		tx := types.Transaction{Client: uint64(i), Payload: make([]byte, 150), Sig: make([]byte, 64)}
		rng.Read(tx.Payload)
		e.Txns = append(e.Txns, tx)
	}
	d := e.Digest()
	cert := &keys.Certificate{Group: 0, Digest: d}
	for j := 0; j < reg.QuorumSize(0); j++ {
		cert.Sigs = append(cert.Sigs, keys.SignCertificate(pairs[0][j], 0, d))
	}
	enc, err := Encode(e.Encode(), p)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{pairs: pairs, reg: reg, plan: p, entry: e, cert: cert, encoded: enc}
}

func collectorFor(f *fixture, got *[]Rebuilt) *Collector {
	return NewCollector(f.reg,
		func(sg int) *plan.Plan {
			if sg == 0 {
				return f.plan
			}
			return nil
		},
		func(sg int, r Rebuilt) { *got = append(*got, r) })
}

// singles cuts a sender's Algorithm-1 assignment under enc into one-index
// batches, in plan order: the single-chunk case of the one chunk form, each
// multiproof the chunk's plain sibling path.
func (f *fixture) singles(t *testing.T, enc *Encoded, sender int, cert *keys.Certificate) []ChunkBatch {
	t.Helper()
	var out []ChunkBatch
	for _, tr := range enc.Plan.SenderTransfers(sender) {
		b, err := enc.Batch([]int{tr.Chunk}, f.entry.ID, cert)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestEncodeDeterministicAcrossNodes(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	enc2, err := Encode(f.entry.Encode(), f.plan)
	if err != nil {
		t.Fatal(err)
	}
	if enc2.Tree.Root() != f.encoded.Tree.Root() {
		t.Fatal("two nodes encoding the same entry derived different Merkle roots")
	}
}

func TestRebuildHappyPathAllChunks(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	for i := 0; i < 4; i++ {
		msgs := f.singles(t, f.encoded, i, f.cert)
		for k := range msgs {
			if _, err := c.AddBatch(&msgs[k]); err != nil && err != ErrDelivered {
				t.Fatal(err)
			}
		}
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d entries, want 1", len(got))
	}
	if got[0].Entry.Digest() != f.entry.Digest() {
		t.Fatal("rebuilt entry differs")
	}
	if keys.Hash(got[0].Enc) != f.cert.Digest {
		t.Fatal("Rebuilt.Enc is not the certified encoding")
	}
	if !c.Delivered(f.entry.ID) {
		t.Fatal("Delivered() false after delivery")
	}
}

func TestRebuildFromExactlyDataChunks(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	var all []ChunkBatch
	for i := 0; i < 4; i++ {
		msgs := f.singles(t, f.encoded, i, f.cert)
		all = append(all, msgs...)
	}
	// Worst case: only n_data arbitrary chunks survive.
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for k := 0; k < f.plan.Data; k++ {
		if _, err := c.AddBatch(&all[k]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d entries with exactly n_data chunks", len(got))
	}
}

func TestNoRebuildBelowDataThreshold(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)
	for k := range msgs { // only 7 chunks < 13 needed
		if _, err := c.AddBatch(&msgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatal("delivered below threshold")
	}
}

func TestTamperedChunksGoToSeparateBucketAndEntryStillRebuilds(t *testing.T) {
	// Byzantine senders encode a TAMPERED entry (valid proofs under a
	// different root). Their chunks land in a separate bucket; the tampered
	// bucket fails certificate validation and its chunk IDs get banned,
	// while the correct bucket still rebuilds (§VI-E "Node Failures").
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)

	// Byzantine entry: same ID, different payload, no valid certificate.
	evil := &types.Entry{ID: f.entry.ID, Txns: []types.Transaction{{Payload: []byte("evil")}}}
	evilEnc, err := Encode(evil.Encode(), f.plan)
	if err != nil {
		t.Fatal(err)
	}
	// Feed enough tampered chunks (with the honest cert attached — the
	// attacker replays it) to trigger a rebuild attempt.
	evilFed := 0
	for i := 0; i < 4 && evilFed < f.plan.Data; i++ {
		msgs := f.singles(t, evilEnc, i, f.cert)
		for k := range msgs {
			if evilFed >= f.plan.Data {
				break
			}
			if _, err := c.AddBatch(&msgs[k]); err != nil {
				t.Fatal(err)
			}
			evilFed++
		}
	}
	if len(got) != 0 {
		t.Fatal("tampered entry delivered")
	}
	_, failed, _ := c.Stats()
	if failed == 0 {
		t.Fatal("no failed rebuild recorded")
	}
	// The banned IDs refuse further chunks — including honest ones with the
	// same IDs, which is why honest nodes must still supply n_data chunks
	// with *unbanned* IDs. Here all 28 honest chunks arrive; at least
	// 28-13 = 15 >= 13 unbanned remain.
	for i := 0; i < 4; i++ {
		msgs := f.singles(t, f.encoded, i, f.cert)
		for k := range msgs {
			c.AddBatch(&msgs[k]) // banned/duplicate errors are expected
		}
	}
	if len(got) != 1 {
		t.Fatalf("honest entry not rebuilt after attack: delivered=%d", len(got))
	}
}

func TestGarbageChunkRejected(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)
	bad := msgs[0]
	bad.Chunks = [][]byte{append([]byte(nil), bad.Chunks[0]...)}
	bad.Chunks[0][0] ^= 1 // proof no longer matches
	if _, err := c.AddBatch(&bad); err != ErrBadProof {
		t.Fatalf("got %v, want ErrBadProof", err)
	}
	_, _, rejected := c.Stats()
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
}

func TestWrongGeometryRejected(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)

	m := msgs[0]
	m.Total = 99
	if _, err := c.AddBatch(&m); err != ErrWrongPlanSize {
		t.Fatalf("got %v, want ErrWrongPlanSize", err)
	}
	m = msgs[0]
	m.Indices = []int{-1}
	if _, err := c.AddBatch(&m); err != ErrBadGeometry {
		t.Fatalf("got %v, want ErrBadGeometry", err)
	}
	m = msgs[0]
	m.Cert = nil
	if _, err := c.AddBatch(&m); err != ErrMissingCert {
		t.Fatalf("got %v, want ErrMissingCert", err)
	}
	m = msgs[0]
	m.Entry.GID = 1 // no plan for sender group 1 in this fixture
	if _, err := c.AddBatch(&m); err != ErrBadGeometry {
		t.Fatalf("got %v, want ErrBadGeometry", err)
	}
}

func TestDuplicateChunk(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)
	if _, err := c.AddBatch(&msgs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBatch(&msgs[0]); err != ErrDuplicate {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
}

func TestForgetDropsState(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)
	c.AddBatch(&msgs[0])
	c.Forget(f.entry.ID)
	if c.Delivered(f.entry.ID) {
		t.Fatal("Delivered true after Forget")
	}
	// Chunk can be re-added fresh.
	if fwd, err := c.AddBatch(&msgs[0]); err != nil || !fwd {
		t.Fatalf("re-add after Forget: fwd=%v err=%v", fwd, err)
	}
}

func TestForgedCertificateRejectedAtRebuild(t *testing.T) {
	f := newFixture(t, 4, 7, 5)
	var got []Rebuilt
	c := collectorFor(f, &got)
	// Certificate with garbage signatures.
	badCert := &keys.Certificate{Group: 0, Digest: f.entry.Digest()}
	for j := 0; j < 3; j++ {
		badCert.Sigs = append(badCert.Sigs, keys.Signature{
			Signer: keys.NodeID{Group: 0, Index: j}, Sig: make([]byte, 64),
		})
	}
	var fed int
	for i := 0; i < 4 && fed < f.plan.Data; i++ {
		msgs := f.singles(t, f.encoded, i, badCert)
		for k := range msgs {
			if fed >= f.plan.Data {
				break
			}
			c.AddBatch(&msgs[k])
			fed++
		}
	}
	if len(got) != 0 {
		t.Fatal("entry with forged certificate delivered")
	}
}

func TestEqualGroupSizes7(t *testing.T) {
	f := newFixture(t, 7, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	for i := 0; i < 7; i++ {
		msgs := f.singles(t, f.encoded, i, f.cert)
		for k := range msgs {
			if _, err := c.AddBatch(&msgs[k]); err != nil && err != ErrDelivered {
				t.Fatal(err)
			}
		}
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
}

func TestValidateEntryMsg(t *testing.T) {
	f := newFixture(t, 4, 7, 5)
	m := &EntryMsg{Entry: f.entry, Cert: f.cert}
	enc, err := ValidateEntryMsg(f.reg, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, f.entry.Encode()) {
		t.Fatal("ValidateEntryMsg returned bytes other than the certified encoding")
	}
	if _, err := ValidateEntryMsg(f.reg, &EntryMsg{Entry: f.entry}); err == nil {
		t.Fatal("nil cert accepted")
	}
	evil := *f.entry
	evil.Term = 999
	if _, err := ValidateEntryMsg(f.reg, &EntryMsg{Entry: &evil, Cert: f.cert}); err == nil {
		t.Fatal("tampered entry accepted")
	}
	wrongGroup := *f.cert
	wrongGroup.Group = 1
	if _, err := ValidateEntryMsg(f.reg, &EntryMsg{Entry: f.entry, Cert: &wrongGroup}); err == nil {
		t.Fatal("wrong-group cert accepted")
	}
	if m.WireSize() <= f.entry.WireSize() {
		t.Fatal("EntryMsg wire size must include certificate")
	}
}

func BenchmarkEncodeEntry40KB(b *testing.B) {
	p, _ := plan.New(7, 7)
	data := make([]byte, 40*1024)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(data, p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBatchesCoverTransfersAndRebuild(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	seen := make(map[int]bool)
	for i := 0; i < 4; i++ {
		batches, recvs, err := f.encoded.Batches(i, f.entry.ID, f.cert)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) != len(recvs) {
			t.Fatal("parallel slices mismatch")
		}
		for k := range batches {
			b := &batches[k]
			// A sender's batch to one receiver matches the plan rows.
			raw := 0
			for j, idx := range b.Indices {
				tr := f.plan.Transfers[idx]
				if tr.Sender != i || tr.Receiver != recvs[k] {
					t.Fatalf("chunk %d misrouted", idx)
				}
				if seen[idx] {
					t.Fatalf("chunk %d in two batches", idx)
				}
				seen[idx] = true
				raw += len(b.Chunks[j])
			}
			if b.WireSize() <= raw {
				t.Fatal("wire size must exceed raw chunk size")
			}
			if _, err := c.AddBatch(b); err != nil && err != ErrDelivered {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != f.plan.Total {
		t.Fatalf("batches covered %d chunks, want %d", len(seen), f.plan.Total)
	}
	if _, _, err := f.encoded.Batches(4, f.entry.ID, f.cert); err == nil {
		t.Fatal("out-of-range sender accepted")
	}
	if len(got) != 1 || got[0].Entry.Digest() != f.entry.Digest() {
		t.Fatalf("rebuild via batches failed: %d delivered", len(got))
	}
}

func TestAddBatchRejectsTampering(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	batches, _, _ := f.encoded.Batches(0, f.entry.ID, f.cert)
	b := batches[0]
	b.Chunks = append([][]byte{}, b.Chunks...)
	b.Chunks[0] = append([]byte{0xFF}, b.Chunks[0]...)
	if _, err := c.AddBatch(&b); err != ErrBadProof {
		t.Fatalf("got %v, want ErrBadProof", err)
	}
	good := batches[0]
	bad := good
	bad.Total = 5
	if _, err := c.AddBatch(&bad); err != ErrWrongPlanSize {
		t.Fatalf("got %v, want ErrWrongPlanSize", err)
	}
	bad = good
	bad.Cert = nil
	if _, err := c.AddBatch(&bad); err != ErrMissingCert {
		t.Fatalf("got %v, want ErrMissingCert", err)
	}
	bad = good
	bad.Indices = append([]int{-1}, good.Indices[1:]...)
	if _, err := c.AddBatch(&bad); err != ErrBadGeometry {
		t.Fatalf("got %v, want ErrBadGeometry", err)
	}
	// Honest chunks and a proof that verifies, bucketed under other indices
	// than the proof speaks for: they would poison the honest root's bucket.
	bad = good
	bad.Indices = append([]int(nil), good.Indices...)
	bad.Indices[len(bad.Indices)-1]++
	if _, err := c.AddBatch(&bad); err != ErrBadProof {
		t.Fatalf("indices disagreeing with the proof: got %v, want ErrBadProof", err)
	}
	if _, err := c.AddBatch(&good); err != nil {
		t.Fatalf("honest batch rejected after attacks: %v", err)
	}
	if _, err := c.AddBatch(&good); err != ErrDuplicate {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
}

func TestTriggeringChunkWithMangledCertDoesNotBanHonestBucket(t *testing.T) {
	// A Byzantine sender ships an honest chunk but mangles the attached
	// certificate's signature bytes. If that chunk is the one that fills the
	// bucket, validation must fall back to the certificate candidates the
	// honest chunks carried instead of banning the whole (honest) bucket.
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)

	var msgs []ChunkBatch
	for i := 0; i < 4; i++ {
		ms := f.singles(t, f.encoded, i, f.cert)
		msgs = append(msgs, ms...)
	}
	for k := 0; k < f.plan.Data-1; k++ {
		if _, err := c.AddBatch(&msgs[k]); err != nil {
			t.Fatal(err)
		}
	}

	mangled := *f.cert
	mangled.Sigs = append([]keys.Signature(nil), f.cert.Sigs...)
	mangled.Sigs[0].Sig = append([]byte(nil), f.cert.Sigs[0].Sig...)
	mangled.Sigs[0].Sig[0] ^= 0xff
	trigger := msgs[f.plan.Data-1]
	trigger.Cert = &mangled
	if _, err := c.AddBatch(&trigger); err != nil {
		t.Fatal(err)
	}

	if len(got) != 1 {
		t.Fatalf("entry not delivered: got %d deliveries", len(got))
	}
	if got[0].Entry.Digest() != f.entry.Digest() {
		t.Fatal("delivered wrong entry")
	}
	if err := f.reg.VerifyCertificate(got[0].Cert); err != nil {
		t.Fatalf("delivered with invalid certificate: %v", err)
	}
	if c.CertRetries() == 0 {
		t.Fatal("cert retry not counted")
	}
	_, failed, _ := c.Stats()
	if failed != 0 {
		t.Fatalf("honest bucket recorded as failed rebuild (%d)", failed)
	}
}

func TestMangledCertOnlyBucketDeliversOnceValidCertArrives(t *testing.T) {
	// Worse case: every chunk that fills the bucket carries the mangled
	// certificate (one Byzantine sender can ship any index, since proofs
	// verify against the root). The data is sound, so the bucket must not be
	// banned; the entry is delivered as soon as any chunk brings a clean
	// certificate copy — here a duplicate of an already-seen index.
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)

	mangled := *f.cert
	mangled.Sigs = append([]keys.Signature(nil), f.cert.Sigs...)
	mangled.Sigs[0].Sig = append([]byte(nil), f.cert.Sigs[0].Sig...)
	mangled.Sigs[0].Sig[0] ^= 0xff

	var msgs []ChunkBatch
	for i := 0; i < 4; i++ {
		ms := f.singles(t, f.encoded, i, &mangled)
		msgs = append(msgs, ms...)
	}
	for k := 0; k < f.plan.Data; k++ {
		if _, err := c.AddBatch(&msgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatal("delivered without any valid certificate")
	}
	_, failed, _ := c.Stats()
	if failed != 0 {
		t.Fatal("sound bucket banned for a mangled certificate")
	}

	honest := msgs[0]
	honest.Cert = f.cert
	if _, err := c.AddBatch(&honest); err != ErrDuplicate {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
	if len(got) != 1 {
		t.Fatalf("entry not delivered after valid cert arrived: %d", len(got))
	}
	if err := f.reg.VerifyCertificate(got[0].Cert); err != nil {
		t.Fatalf("delivered with invalid certificate: %v", err)
	}
}

func TestDataLenDisagreementBucketsSeparately(t *testing.T) {
	// A Byzantine sender replays an honest chunk (valid proof, same root)
	// but lies about DataLen. Chunks that disagree on DataLen cannot decode
	// together, so they must not share a bucket: under the old root-only
	// bucketing the lying first writer fixed the length for everyone and the
	// honest chunks were banned when the join produced garbage.
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)

	var msgs []ChunkBatch
	for i := 0; i < 4; i++ {
		ms := f.singles(t, f.encoded, i, f.cert)
		msgs = append(msgs, ms...)
	}

	// Byzantine copy arrives first and would fix the bucket's DataLen.
	liar := msgs[0]
	liar.DataLen = msgs[0].DataLen - 7
	if _, err := c.AddBatch(&liar); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < f.plan.Data; k++ {
		if _, err := c.AddBatch(&msgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("honest chunks did not rebuild: delivered=%d", len(got))
	}
	if got[0].Entry.Digest() != f.entry.Digest() {
		t.Fatal("delivered wrong entry")
	}
}
