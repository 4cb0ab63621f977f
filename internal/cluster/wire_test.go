package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/merkle"
	"massbft/internal/order"
	"massbft/internal/pbft"
	"massbft/internal/replication"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// wireFixtures returns one representative, fully-populated value per
// envelope kind (and per pbft sub-kind). Every codec test iterates these.
func wireFixtures() map[string]any {
	sig := func(g, i int, b string) keys.Signature {
		return keys.Signature{Signer: keys.NodeID{Group: g, Index: i}, Sig: []byte(b)}
	}
	cert := &keys.Certificate{
		Group:  2,
		Digest: [32]byte{1, 2, 3},
		Sigs:   []keys.Signature{sig(2, 0, "s0"), sig(2, 1, "s1")},
	}
	entry := &types.Entry{
		ID:          types.EntryID{GID: 1, Seq: 7},
		Term:        3,
		CommitIndex: 6,
		Txns: []types.Transaction{{
			Client: 9, Nonce: 4, Payload: []byte("put k v"), Sig: []byte("txsig"),
		}},
	}
	pp := &pbft.PrePrepare{
		View: 2, Slot: 11, Digest: [32]byte{0xaa}, Payload: []byte("prop"), Sig: sig(0, 1, "pp"),
	}
	batch := &replication.ChunkBatch{
		Entry:   types.EntryID{GID: 1, Seq: 13},
		Root:    [32]byte{0xdd},
		Total:   6,
		Data:    4,
		DataLen: 90,
		Indices: []int{0, 2},
		Proof:   merkle.MultiProof{Indices: []int{0, 2}, Siblings: [][32]byte{{0x03}}},
		Chunks:  [][]byte{[]byte("c0"), []byte("c2")},
		Cert:    cert,
	}
	recs := []Record{
		{Kind: RecTS, Stream: 1, Entry: types.EntryID{GID: 1, Seq: 5}, TS: 42, View: 1},
		{Kind: RecCommit, Stream: 0, Entry: types.EntryID{GID: 0, Seq: 9}, TS: 40, View: 2},
	}
	st := statedb.New()
	st.Put("alpha", []byte("1"))
	st.Put("beta", []byte("2"))
	ck := &Checkpoint{
		Height: 5,
		Blocks: []*ledger.Block{{
			Height: 5, Prev: [32]byte{0x10}, Entry: types.EntryID{GID: 0, Seq: 4},
			EntryDigest: [32]byte{0x11}, Committed: 7, Aborted: 1, StateDigest: [32]byte{0x12},
		}},
		State:       st,
		StateRoll:   [32]byte{0x13},
		Clk:         44,
		NextSeq:     10,
		ExecutedSeq: []uint64{4, 3},
		ExecCount:   8,
		CommitCount: 9,
		StreamTS:    []uint64{44, 41},
		StreamNext:  []uint64{5, 4},
		Batches: []*MetaBatch{
			{FromGroup: 1, Seq: 3, Records: recs, Cert: cert},
		},
		StreamView: []uint64{0, 1},
		LocalView:  1,
		LocalSlot:  12,
		LocalSlots: []pbft.ExportedSlot{{
			Slot: 11, Digest: [32]byte{0x14}, Payload: []byte("slotpl"),
			Prepares:  []keys.NodeID{{Group: 0, Index: 1}, {Group: 0, Index: 2}},
			Commits:   []keys.Signature{sig(0, 1, "cm")},
			Committed: true,
		}},
		MetaView:  2,
		MetaSlot:  6,
		MetaSlots: []pbft.ExportedSlot{},
		Ord: &order.State{
			ExecutedSeq: []uint64{4, 3},
			Entries: []order.EntryVTS{{
				ID: types.EntryID{GID: 1, Seq: 5}, VTS: []uint64{42, 0}, Set: []bool{true, false},
			}},
		},
		Round:   3,
		Skipped: []types.EntryID{{GID: 1, Seq: 2}},
		Pending: []PendingEntry{{
			ID: entry.ID, Entry: entry, Cert: cert, StampedBy: 1,
			Streams: []int{0, 1}, Stamps: []int{1}, Committed: true, CommitSeen: false,
		}},
		DeadGroups:      []int{3},
		DeadCuts:        []uint64{17},
		Suspects:        []SuspectEdge{{Suspected: 3, Origin: 0, Cursor: 6}},
		OwnSuspects:     []int{3},
		Epoch:           2,
		Standby:         []int{3},
		Departed:        []int{2},
		JoinStartGroups: []int{1},
		JoinStartSeqs:   []uint64{21},
		JoinVotes:       []SuspectEdge{{Suspected: 3, Origin: 0}},
		LeaveVotes:      []SuspectEdge{{Suspected: 2, Origin: 1}, {Suspected: 2, Origin: 2}},
		CommitHi:        []uint64{20, 19},
	}

	return map[string]any{
		"LocalMsg.PrePrepare": &LocalMsg{M: pp},
		"LocalMsg.Prepare": &LocalMsg{M: &pbft.Prepare{
			View: 2, Slot: 11, Digest: [32]byte{0xaa}, Sig: sig(0, 2, "pr"),
		}},
		"LocalMsg.Commit": &LocalMsg{M: &pbft.Commit{
			View: 2, Slot: 11, Digest: [32]byte{0xaa}, Share: sig(0, 2, "cm"),
		}},
		"LocalMsg.ViewChange": &LocalMsg{M: &pbft.ViewChange{
			NewView: 3,
			Prepared: []pbft.PreparedInfo{
				{Slot: 10, Digest: [32]byte{0xbb}, Payload: []byte("pl")},
			},
			Sig: sig(0, 2, "vc"),
		}},
		"MetaMsg.NewView": &MetaMsg{M: &pbft.NewView{
			View: 3, Reproposals: []*pbft.PrePrepare{pp}, Sig: sig(0, 0, "nv"),
		}},
		"MetaMsg.SlotRequest": &MetaMsg{M: &pbft.SlotRequest{From: 4}},
		"MetaMsg.SlotReply": &MetaMsg{M: &pbft.SlotReply{
			NV: &pbft.NewView{View: 3, Reproposals: []*pbft.PrePrepare{pp}, Sig: sig(0, 0, "nv")},
			Slots: []pbft.CommittedSlot{
				{Slot: 5, Payload: []byte("cp"), Cert: cert},
				{Slot: 6, Payload: nil, Cert: nil},
			},
		}},
		"ChunkBatch": batch,
		"BatchFwd":   &BatchFwd{B: batch},
		"EntryWAN":   &EntryWAN{E: &replication.EntryMsg{Entry: entry, Cert: cert}},
		"EntryFwd":   &EntryFwd{E: &replication.EntryMsg{Entry: nil, Cert: cert}},
		"MetaBatch":  &MetaBatch{FromGroup: 1, Seq: 3, Records: recs, Cert: cert},
		"EntryFetch": &EntryFetch{Entry: types.EntryID{GID: 1, Seq: 7}},
		"ChunkRepairReq": &ChunkRepairReq{
			Entry: types.EntryID{GID: 0, Seq: 12}, Missing: []int{1, 4},
		},
		"StreamFetch": &StreamFetch{Origin: 1, From: 9},
		"ProposalFwd": &ProposalFwd{Payload: []byte("fwd")},
		"RejoinReq":   &RejoinReq{Have: 5},
		"RejoinResp":  &RejoinResp{C: ck},
		"ClientRequest": &ClientRequest{Txn: types.Transaction{
			Client: 9, Nonce: 4, Payload: []byte("put k v"), Sig: []byte("clisig"),
		}},
		"ClientReply": &ClientReply{
			Client: 9, Nonce: 4, Status: ReplyOK, GID: 1, Height: 12,
			Result: []byte("ok"), Leaves: 5, Index: 2,
			Path: [][merkle.HashSize]byte{{0xa1}, {0xa2}, {0xa3}},
			Sig:  sig(1, 2, "rs"),
		},
		// A dedup-window answer: a receipt over a one-leaf tree, no path.
		"ClientReply.Dup": &ClientReply{
			Client: 9, Nonce: 4, Status: ReplyDup, GID: 1, Height: 12,
			Result: []byte("ok"), Leaves: 1, Sig: sig(1, 3, "rd"),
		},
		"Reconfigure": &ReconfigureMsg{Op: ReconfigJoin, Group: 3},
		// The membership record kinds travel inside ordinary MetaBatches;
		// pin one batch carrying all three so their canonical record
		// encoding is covered by round-trip, truncation, and golden tests.
		"MetaBatch.Membership": &MetaBatch{FromGroup: 0, Seq: 8, Records: []Record{
			{Kind: RecGroupJoin, Stream: 3},
			{Kind: RecGroupLeave, Stream: 2, TS: 17},
			{Kind: RecEpoch, Stream: 3, Entry: types.EntryID{GID: int(ReconfigJoin), Seq: 3}, TS: 21},
		}, Cert: cert},
	}
}

// TestEnvelopeRoundTrip: encode -> decode must reproduce the value, and
// re-encoding the decode must reproduce the bytes (canonical encoding).
func TestEnvelopeRoundTrip(t *testing.T) {
	for name, msg := range wireFixtures() {
		t.Run(name, func(t *testing.T) {
			enc, err := EncodeEnvelope(msg)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := DecodeEnvelope(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// The statedb store embeds unexported fields; compare via
			// re-encoding for the checkpoint kind, reflect for the rest.
			if name == "RejoinResp" {
				re, err := EncodeEnvelope(dec)
				if err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				if !bytes.Equal(enc, re) {
					t.Fatalf("checkpoint round-trip not byte-identical")
				}
				want, got := msg.(*RejoinResp).C, dec.(*RejoinResp).C
				if want.Height != got.Height || want.State.Hash() != got.State.Hash() ||
					!reflect.DeepEqual(want.Pending, got.Pending) ||
					!reflect.DeepEqual(want.Ord, got.Ord) {
					t.Fatalf("checkpoint fields mismatch after round-trip")
				}
				return
			}
			if !reflect.DeepEqual(msg, dec) {
				t.Fatalf("round-trip mismatch:\n want %#v\n  got %#v", msg, dec)
			}
			re, err := EncodeEnvelope(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("encoding not canonical: %x vs %x", enc, re)
			}
		})
	}
}

// TestEnvelopeTruncation: every strict prefix of a valid encoding must be
// rejected without panicking.
func TestEnvelopeTruncation(t *testing.T) {
	for name, msg := range wireFixtures() {
		enc, err := EncodeEnvelope(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		for i := 0; i < len(enc); i++ {
			if _, err := DecodeEnvelope(enc[:i]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded successfully", name, i, len(enc))
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := DecodeEnvelope(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
}

// TestClientReplyHostileReceipt: the receipt fields of a ClientReply decode
// strictly — 1 ≤ leaves ≤ MaxReceiptLeaves, index < leaves, and exactly
// merkle.Depth(leaves) path hashes, checked to be present before the path is
// allocated — so a hostile leaf count cannot make the decoder allocate.
func TestClientReplyHostileReceipt(t *testing.T) {
	base := wireFixtures()["ClientReply"].(*ClientReply)
	mut := func(f func(m *ClientReply)) []byte {
		m := *base
		f(&m)
		enc, err := EncodeEnvelope(&m)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for name, enc := range map[string][]byte{
		"leaves 0":            mut(func(m *ClientReply) { m.Leaves, m.Index, m.Path = 0, 0, nil }),
		"leaves past bound":   mut(func(m *ClientReply) { m.Leaves = MaxReceiptLeaves + 1 }),
		"leaves 2^32-1":       mut(func(m *ClientReply) { m.Leaves = 1<<32 - 1 }),
		"index equals leaves": mut(func(m *ClientReply) { m.Index = m.Leaves }),
		"path too short":      mut(func(m *ClientReply) { m.Path = m.Path[:2] }),
		"path too long":       mut(func(m *ClientReply) { m.Path = append(m.Path[:3:3], m.Path[0]) }),
		"deep tree, no path":  mut(func(m *ClientReply) { m.Leaves, m.Path = MaxReceiptLeaves, nil }),
	} {
		if _, err := DecodeEnvelope(enc); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// The bound itself is legal.
	ok := mut(func(m *ClientReply) {
		m.Leaves, m.Index = MaxReceiptLeaves, MaxReceiptLeaves-1
		m.Path = make([][merkle.HashSize]byte, merkle.Depth(MaxReceiptLeaves))
	})
	if _, err := DecodeEnvelope(ok); err != nil {
		t.Errorf("leaves at the bound: %v", err)
	}
	// A rejected count allocates nothing to speak of.
	hostile := mut(func(m *ClientReply) { m.Leaves = 1<<32 - 1 })
	if n := testing.AllocsPerRun(20, func() { DecodeEnvelope(hostile) }); n > 6 {
		t.Errorf("rejecting a hostile leaf count allocates %v times", n)
	}
}

// TestEnvelopeUnknownKinds: unknown envelope and pbft kinds error cleanly.
func TestEnvelopeUnknownKinds(t *testing.T) {
	if _, err := DecodeEnvelope(nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := DecodeEnvelope([]byte{0xff}); !errors.Is(err, ErrEnvelopeKind) {
		t.Fatalf("unknown envelope kind: %v, want ErrEnvelopeKind", err)
	}
	for name, enc := range retiredEnvelopes() {
		if _, err := DecodeEnvelope(enc); !errors.Is(err, ErrEnvelopeKind) {
			t.Fatalf("retired %s: %v, want ErrEnvelopeKind", name, err)
		}
		if kn := EnvelopeKindName(enc[0]); kn != fmt.Sprintf("kind-%d", enc[0]) {
			t.Fatalf("retired %s still named %q", name, kn)
		}
	}
	if _, err := DecodeEnvelope([]byte{envLocalMsg, 0xff}); err == nil {
		t.Fatal("unknown pbft kind accepted")
	}
	if _, err := EncodeEnvelope("not a wire type"); err == nil {
		t.Fatal("encoded a non-wire type")
	}
}

// retiredEnvelopes returns a once-valid encoding of each retired envelope
// kind — 3, a single chunk over WAN, and 4, its LAN re-broadcast, both
// replaced by ChunkBatch / BatchFwd — captured from the last codec that had
// them. A peer still sending one must get ErrEnvelopeKind, not a misparse.
func retiredEnvelopes() map[string][]byte {
	// entry id, root, total, data, data length, index, proof index, two
	// siblings, the chunk, the certificate.
	const bodyHex = "00000000000000000000000ccc00000000000000000000000000000000000000" +
		"0000000000000000000000000000000600000004000000640000000300000003" +
		"0000000201000000000000000000000000000000000000000000000000000000" +
		"0000000002000000000000000000000000000000000000000000000000000000" +
		"00000000000000096368756e6b64617461010000000201020300000000000000" +
		"0000000000000000000000000000000000000000000000000002000000020000" +
		"00000000000273300000000200000001000000027331"
	body, err := hex.DecodeString(bodyHex)
	if err != nil {
		panic(err)
	}
	return map[string][]byte{
		"kind 3": append([]byte{3}, body...),
		"kind 4": append([]byte{4}, body...),
	}
}

// goldenEnvelopes pins the wire format: if any of these change, the codec
// has drifted and every deployed node disagrees about bytes on the wire.
// Regenerate deliberately (and bump transport.FrameVersion) if the format
// must evolve.
var goldenEnvelopes = map[string]string{
	"LocalMsg.Prepare": "01020000000000000002000000000000000baa00000000000000000000000000" +
		"0000000000000000000000000000000000000000000000000002000000027072",
	"MetaMsg.SlotRequest": "02060000000000000004",
	"EntryFetch":          "0a000000010000000000000007",
	"StreamFetch":         "0c000000010000000000000009",
	"ProposalFwd":         "0d00000003667764",
	"RejoinReq":           "0e0000000000000005",
	"MetaBatch": "0900000001000000000000000300000046000000020000000001000000010000" +
		"000000000005000000000000002a000000000000000102000000000000000000" +
		"0000000000000900000000000000280000000000000002010000000201020300" +
		"0000000000000000000000000000000000000000000000000000000000000002" +
		"00000002000000000000000273300000000200000001000000027331",
	"ClientRequest": "100000000000000009000000000000000400000007707574206b2076" +
		"00000006636c69736967",
	"ClientReply": "11000000000000000900000000000000040100000001000000000000000c0000" +
		"00026f6b0000000500000002a100000000000000000000000000000000000000" +
		"000000000000000000000000a200000000000000000000000000000000000000" +
		"000000000000000000000000a300000000000000000000000000000000000000" +
		"0000000000000000000000000000000100000002000000027273",
	"ClientReply.Dup": "11000000000000000900000000000000040200000001000000000000000c0000" +
		"00026f6b00000001000000000000000100000003000000027264",
	"Reconfigure": "120100000003",
	"MetaBatch.Membership": "0900000000000000000000000800000067000000030600000003000000000000" +
		"0000000000000000000000000000000000000000000007000000020000000000" +
		"0000000000000000000000000000110000000000000000080000000300000001" +
		"0000000000000003000000000000001500000000000000000100000002010203" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"0200000002000000000000000273300000000200000001000000027331",
	// The two highest-volume kinds on the wire.
	"ChunkBatch": "0500000001000000000000000ddd000000000000000000000000000000000000" +
		"0000000000000000000000000000000006000000040000005a00000002000000" +
		"0000000002000000020000000000000002000000010300000000000000000000" +
		"0000000000000000000000000000000000000000000000000200000002633000" +
		"0000026332010000000201020300000000000000000000000000000000000000" +
		"0000000000000000000000000002000000020000000000000002733000000002" +
		"00000001000000027331",
	"BatchFwd": "0600000001000000000000000ddd000000000000000000000000000000000000" +
		"0000000000000000000000000000000006000000040000005a00000002000000" +
		"0000000002000000020000000000000002000000010300000000000000000000" +
		"0000000000000000000000000000000000000000000000000200000002633000" +
		"0000026332010000000201020300000000000000000000000000000000000000" +
		"0000000000000000000000000002000000020000000000000002733000000002" +
		"00000001000000027331",
}

// TestEnvelopeKindNames: every fixture's first encoded byte maps to a stable
// named kind (no fixture falls through to the "kind-N" catch-all), and
// unknown bytes get the catch-all.
func TestEnvelopeKindNames(t *testing.T) {
	seen := map[string]bool{}
	for name, msg := range wireFixtures() {
		enc, err := EncodeEnvelope(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		kn := EnvelopeKindName(enc[0])
		if len(kn) > 5 && kn[:5] == "kind-" {
			t.Errorf("%s: kind byte %d has no name", name, enc[0])
		}
		seen[kn] = true
	}
	if want := EnvelopeKindName(0xfe); want != "kind-254" {
		t.Errorf("unknown kind name = %q", want)
	}
	for _, want := range envelopeKindNames {
		if !seen[want] {
			t.Errorf("no fixture exercised kind %q", want)
		}
	}
	if len(seen) != 16 {
		t.Errorf("fixtures exercise %d envelope kinds, the wire contract has 16", len(seen))
	}
}

func TestEnvelopeGolden(t *testing.T) {
	fixtures := wireFixtures()
	for name, wantHex := range goldenEnvelopes {
		msg, ok := fixtures[name]
		if !ok {
			t.Fatalf("golden %s has no fixture", name)
		}
		enc, err := EncodeEnvelope(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got := hex.EncodeToString(enc)
		if got != wantHex {
			t.Errorf("%s: wire format drift:\n want %s\n  got %s", name, wantHex, got)
		}
	}
}
