package replication

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"massbft/internal/merkle"
	"massbft/internal/types"
)

// evilEncoding returns a conflicting encoding of the fixture entry: same
// EntryID, different payload, hence a different Merkle root.
func evilEncoding(t *testing.T, f *fixture) *Encoded {
	t.Helper()
	evil := &types.Entry{ID: f.entry.ID, Txns: []types.Transaction{{Payload: []byte("evil")}}}
	enc, err := Encode(evil.Encode(), f.plan)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestDuplicateBatchDelivery(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	batches, _, err := f.encoded.Batches(0, f.entry.ID, f.cert)
	if err != nil {
		t.Fatal(err)
	}
	if fwd, err := c.AddBatch(&batches[0]); err != nil || !fwd {
		t.Fatalf("first batch: fwd=%v err=%v", fwd, err)
	}
	// The same batch again (a duplicated WAN delivery) is not fresh and must
	// not be re-forwarded over LAN.
	if fwd, err := c.AddBatch(&batches[0]); err != ErrDuplicate || fwd {
		t.Fatalf("duplicate batch: fwd=%v err=%v, want ErrDuplicate", fwd, err)
	}
	// Feed everything else, with every batch delivered twice; the entry must
	// still be delivered exactly once.
	for i := 0; i < 4; i++ {
		bs, _, _ := f.encoded.Batches(i, f.entry.ID, f.cert)
		for k := range bs {
			c.AddBatch(&bs[k])
			c.AddBatch(&bs[k])
		}
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d times under duplicated delivery, want 1", len(got))
	}
	// Post-delivery chunks report ErrDelivered.
	msgs := f.singles(t, f.encoded, 0, f.cert)
	if _, err := c.AddBatch(&msgs[0]); err != ErrDelivered {
		t.Fatalf("post-delivery chunk: %v, want ErrDelivered", err)
	}
}

func TestChunkAfterBucketBanned(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	evil := evilEncoding(t, f)

	// Fill the evil bucket to n_data: the rebuild attempt fails certificate
	// validation and bans every chunk ID in the bucket.
	var evilMsgs []ChunkBatch
	for i := 0; i < 4; i++ {
		msgs := f.singles(t, evil, i, f.cert)
		evilMsgs = append(evilMsgs, msgs...)
	}
	for k := 0; k < f.plan.Data; k++ {
		if _, err := c.AddBatch(&evilMsgs[k]); err != nil {
			t.Fatal(err)
		}
	}
	if _, failed, _ := c.Stats(); failed != 1 {
		t.Fatalf("failed rebuilds = %d, want 1", failed)
	}
	// A late chunk for a banned ID is refused — even an HONEST one: the ban
	// is by chunk ID, which is the price of the §IV-C DoS defense.
	bannedID := evilMsgs[0].Indices[0]
	var honest *ChunkBatch
	for i := 0; i < 4 && honest == nil; i++ {
		msgs := f.singles(t, f.encoded, i, f.cert)
		for k := range msgs {
			if msgs[k].Indices[0] == bannedID {
				honest = &msgs[k]
				break
			}
		}
	}
	_, _, rejectedBefore := c.Stats()
	if _, err := c.AddBatch(honest); err != ErrBannedChunk {
		t.Fatalf("chunk after ban: %v, want ErrBannedChunk", err)
	}
	if _, _, rejected := c.Stats(); rejected != rejectedBefore+1 {
		t.Fatal("rejected counter did not advance")
	}
	// So is a batch of nothing but banned IDs, each one counted.
	allBanned, err := f.encoded.Batch([]int{bannedID, evilMsgs[1].Indices[0]}, f.entry.ID, f.cert)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBatch(&allBanned); err != ErrBannedChunk {
		t.Fatalf("all-banned batch: %v, want ErrBannedChunk", err)
	}
	if _, _, rejected := c.Stats(); rejected != rejectedBefore+3 {
		t.Fatal("rejected counter did not count both banned chunks")
	}
	// A batch overlapping banned IDs silently skips them but keeps fresh ones.
	batches, _, _ := f.encoded.Batches(0, f.entry.ID, f.cert)
	for k := range batches {
		c.AddBatch(&batches[k])
	}
	_, missing, ok := c.Missing(f.entry.ID)
	if !ok {
		t.Fatal("Missing not ok")
	}
	for _, idx := range missing {
		if idx == bannedID {
			t.Fatal("banned ID listed as missing")
		}
	}
}

func TestInterleavedConflictingRoots(t *testing.T) {
	// Chunks for two conflicting roots of the SAME entry arrive interleaved.
	// They must bucket separately by root; the evil bucket fails and is
	// banned; the honest bucket still rebuilds exactly once.
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	evil := evilEncoding(t, f)
	if evil.Tree.Root() == f.encoded.Tree.Root() {
		t.Fatal("fixture: roots must differ")
	}
	var honestMsgs, evilMsgs []ChunkBatch
	for i := 0; i < 4; i++ {
		hm := f.singles(t, f.encoded, i, f.cert)
		em := f.singles(t, evil, i, f.cert)
		honestMsgs = append(honestMsgs, hm...)
		evilMsgs = append(evilMsgs, em...)
	}
	// The attacker interleaves n_data conflicting chunks with the honest
	// stream (more would be pointless: each failed rebuild costs it the
	// banned IDs). Errors are expected once the ban kicks in.
	for k := range honestMsgs {
		if k < f.plan.Data {
			c.AddBatch(&evilMsgs[k])
		}
		c.AddBatch(&honestMsgs[k])
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d, want exactly 1", len(got))
	}
	if got[0].Entry.Digest() != f.entry.Digest() {
		t.Fatal("wrong entry delivered")
	}
	_, failed, _ := c.Stats()
	if failed == 0 {
		t.Fatal("conflicting bucket never failed a rebuild")
	}
}

func TestMissingNoChunks(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	root, missing, ok := c.Missing(f.entry.ID)
	if !ok {
		t.Fatal("Missing not ok for unseen entry")
	}
	if root != (merkle.Root{}) {
		t.Fatal("root should be zero with no buckets")
	}
	if len(missing) != f.plan.Total {
		t.Fatalf("missing %d, want all %d", len(missing), f.plan.Total)
	}
	// Unknown sender group: nothing to repair.
	if _, _, ok := c.Missing(types.EntryID{GID: 1, Seq: 1}); ok {
		t.Fatal("Missing ok for unknown sender group")
	}
}

func TestMissingPartialAndDelivered(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	msgs := f.singles(t, f.encoded, 0, f.cert)
	have := map[int]bool{}
	for k := range msgs {
		c.AddBatch(&msgs[k])
		have[msgs[k].Indices[0]] = true
	}
	root, missing, ok := c.Missing(f.entry.ID)
	if !ok || root != f.encoded.Tree.Root() {
		t.Fatalf("ok=%v root mismatch", ok)
	}
	if len(missing) != f.plan.Total-len(have) {
		t.Fatalf("missing %d, want %d", len(missing), f.plan.Total-len(have))
	}
	if !sort.IntsAreSorted(missing) {
		t.Fatal("missing not sorted")
	}
	for _, idx := range missing {
		if have[idx] {
			t.Fatalf("chunk %d present but listed missing", idx)
		}
	}
	// After delivery there is nothing to repair.
	for i := 1; i < 4; i++ {
		ms := f.singles(t, f.encoded, i, f.cert)
		for k := range ms {
			c.AddBatch(&ms[k])
		}
	}
	if len(got) != 1 {
		t.Fatal("not delivered")
	}
	if _, _, ok := c.Missing(f.entry.ID); ok {
		t.Fatal("Missing ok after delivery")
	}
}

func TestMissingPrefersLargestBucket(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	var got []Rebuilt
	c := collectorFor(f, &got)
	evil := evilEncoding(t, f)
	// One evil chunk, several honest chunks (below n_data so no ban yet).
	em := f.singles(t, evil, 0, f.cert)
	c.AddBatch(&em[0])
	hm := f.singles(t, f.encoded, 0, f.cert)
	for k := 0; k < 3; k++ {
		c.AddBatch(&hm[k])
	}
	root, _, ok := c.Missing(f.entry.ID)
	if !ok || root != f.encoded.Tree.Root() {
		t.Fatalf("Missing picked root %x, want the larger honest bucket", root[:4])
	}
}

// TestMissingTieBreakIsArrivalFree: among buckets of equal size, Missing
// repairs the one with the smaller key — the smaller Merkle root, then the
// smaller claimed data length — whatever order the chunks arrived in, so
// every replica NACKs the same chunks. Map iteration order changes run to
// run, hence the repetitions.
func TestMissingTieBreakIsArrivalFree(t *testing.T) {
	f := newFixture(t, 4, 7, 20)
	evil := evilEncoding(t, f)
	batch := func(enc *Encoded, idx int) ChunkBatch {
		b, err := enc.Batch([]int{idx}, f.entry.ID, f.cert)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Two roots, one chunk each, at different indexes.
	honest, other := batch(f.encoded, 0), batch(evil, 1)
	if bytes.Compare(other.Root[:], honest.Root[:]) < 0 {
		honest, other = other, honest
	}
	// One root, two claimed data lengths (the proof does not cover the
	// length), one chunk each.
	short, long := batch(f.encoded, 2), batch(f.encoded, 3)
	long.DataLen++

	for _, tc := range []struct {
		name      string
		win, lose ChunkBatch
	}{
		{"smaller root", honest, other},
		{"same root, smaller data length", short, long},
	} {
		want := make([]int, 0, f.plan.Total-1)
		for idx := 0; idx < f.plan.Total; idx++ {
			if idx != tc.win.Indices[0] {
				want = append(want, idx)
			}
		}
		for rep := 0; rep < 20; rep++ {
			for _, order := range [][]ChunkBatch{{tc.win, tc.lose}, {tc.lose, tc.win}} {
				var got []Rebuilt
				c := collectorFor(f, &got)
				for k := range order {
					if _, err := c.AddBatch(&order[k]); err != nil {
						t.Fatalf("%s: chunk %d: %v", tc.name, order[k].Indices[0], err)
					}
				}
				root, missing, ok := c.Missing(f.entry.ID)
				if !ok || root != tc.win.Root || !slices.Equal(missing, want) {
					t.Fatalf("%s, chunk %d first: Missing = %x… %v (ok %v), want %x… %v",
						tc.name, order[0].Indices[0], root[:4], missing, ok, tc.win.Root[:4], want)
				}
			}
		}
	}
}
