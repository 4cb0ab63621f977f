package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/replication"
	"massbft/internal/transport"
	"massbft/internal/types"
)

// hostileEnvelopes returns one payload of every envelope kind a node takes
// from a single sender that names a group or an entry, each naming group g.
// The RejoinResp is built from ck, a checkpoint the receiver would install.
func hostileEnvelopes(g int, ck *cluster.Checkpoint) []any {
	id := types.EntryID{GID: g, Seq: 5}
	entry := &types.Entry{ID: id}
	batch := &replication.ChunkBatch{Entry: id, Total: 6, Data: 2, Indices: []int{0}, Chunks: [][]byte{{1}}}
	out := []any{
		batch,
		&cluster.BatchFwd{B: batch},
		&cluster.EntryWAN{E: &replication.EntryMsg{Entry: entry}},
		&cluster.EntryFwd{E: &replication.EntryMsg{Entry: entry}},
		&cluster.MetaBatch{FromGroup: g, Seq: 1},
		&cluster.EntryFetch{Entry: id},
		&cluster.ChunkRepairReq{Entry: id, Missing: []int{0, 1}},
		&cluster.StreamFetch{Origin: g},
		&cluster.ProposalFwd{Payload: entry.Encode()},
		&cluster.ReconfigureMsg{Op: cluster.ReconfigJoin, Group: g},
		&cluster.ReconfigureMsg{Op: cluster.ReconfigLeave, Group: g},
	}
	if ck != nil {
		forged := *ck
		forged.Pending = append([]cluster.PendingEntry{{ID: id}}, ck.Pending...)
		out = append(out, &cluster.RejoinResp{C: &forged})
	}
	return out
}

// hostileRecords returns the certified records that name group g: as a
// clock stream, and as an entry's origin.
func hostileRecords(g int) []cluster.Record {
	id := types.EntryID{GID: g, Seq: 5}
	return []cluster.Record{
		{Kind: cluster.RecTS, Stream: g, Entry: types.EntryID{GID: 1, Seq: 5}, TS: 9},
		{Kind: cluster.RecTS, Stream: 1, Entry: id, TS: 9},
		{Kind: cluster.RecAccept, Stream: 1, Entry: id},
		{Kind: cluster.RecCommit, Stream: 1, Entry: id},
		{Kind: cluster.RecSuspect, Stream: g, TS: 3},
		{Kind: cluster.RecDead, Stream: g, TS: 3},
		{Kind: cluster.RecGroupJoin, Stream: g},
	}
}

// throughCodec encodes p with the wire codec and returns what decodes.
func throughCodec(t *testing.T, p any) any {
	t.Helper()
	b, err := cluster.EncodeEnvelope(p)
	if err != nil {
		t.Fatalf("encode %T: %v", p, err)
	}
	out, err := cluster.DecodeEnvelope(b)
	if err != nil {
		t.Fatalf("decode %T: %v", p, err)
	}
	return out
}

// noPanic runs f, failing the test with what rather than crashing it on a
// panic.
func noPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", what, r)
		}
	}()
	f()
}

// TestHostileIDsDoNotPanic: the wire carries a group as a u32 that no one
// checked, so every envelope kind naming a group or an entry, with the group
// one past the layout and at 2³¹−1, goes through the codec to a node that
// has executed entries — from a group peer and from another group, and, for
// the checkpoint, to the node mid-rejoin. The records a certified MetaBatch
// carries go through the record codec to processRecords. Nothing may panic.
func TestHostileIDsDoNotPanic(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	n := c.Nodes[keys.NodeID{Group: 0, Index: 1}].(*Node)
	if n.execCount == 0 {
		t.Fatalf("the node executed nothing: %s", c.Metrics.Summary())
	}
	n.ctx.Net = &recordingEndpoint{Endpoint: n.ctx.Net}
	ck := n.foldCheckpoint(n.ledger.Height())
	ck.State = n.DB().Clone()
	for _, g := range []int{n.ng, 1<<31 - 1} {
		for _, p := range hostileEnvelopes(g, ck) {
			p := throughCodec(t, p)
			for _, from := range []keys.NodeID{{Group: 0, Index: 2}, {Group: 1, Index: 0}} {
				_, rejoin := p.(*cluster.RejoinResp)
				n.rejoining = rejoin
				noPanic(t, fmt.Sprintf("group %d, %T from %v", g, p, from), func() {
					n.HandleMessage(transport.Message{From: from, Payload: p})
				})
				n.rejoining = false
			}
		}
		recs, ok := cluster.DecodeRecords(cluster.EncodeRecords(hostileRecords(g)))
		if !ok {
			t.Fatal("the record codec refused the hostile records")
		}
		for _, rec := range recs {
			noPanic(t, fmt.Sprintf("group %d, record %+v", g, rec), func() {
				n.processRecords(1, []cluster.Record{rec})
			})
		}
	}
	if c.Metrics.Counter("rejoin-badpending") != 2 {
		t.Errorf("rejoin-badpending %d, want one per hostile checkpoint", c.Metrics.Counter("rejoin-badpending"))
	}
}

// TestForgedEntryCopiesLeaveNoState: an entry copy that does not validate
// creates no entry state. A thousand copies with no certificate, each naming
// an entry that will never exist, must leave none of them behind after a
// drain.
func TestForgedEntryCopiesLeaveNoState(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	n := c.Nodes[keys.NodeID{Group: 0, Index: 1}].(*Node)
	forged := func(i int) types.EntryID { return types.EntryID{GID: 1, Seq: 1<<40 + uint64(i)} }
	for i := 0; i < 1000; i++ {
		env := &cluster.EntryWAN{E: &replication.EntryMsg{Entry: &types.Entry{ID: forged(i)}}}
		n.HandleMessage(transport.Message{From: keys.NodeID{Group: 1, Index: 0}, Payload: env})
	}
	c.Drain(3 * time.Second)
	for i := 0; i < 1000; i++ {
		if n.entries[forged(i)] != nil {
			t.Fatalf("forged copy %v left entry state (%d entries held)", forged(i), len(n.entries))
		}
	}
}

// TestRejectedChunkBatchesLeaveNoState: a chunk batch the collector rejects
// leaves no entry state and no recorded senders. A thousand batches with no
// certificate and the wrong geometry, under a repair timeout (which arms
// chunk repair on the first chunk), must leave none of their entries behind.
func TestRejectedChunkBatchesLeaveNoState(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	cfg.RepairTimeout = 150 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	n := c.Nodes[keys.NodeID{Group: 0, Index: 1}].(*Node)
	forged := func(i int) types.EntryID { return types.EntryID{GID: 1, Seq: 1<<40 + uint64(i)} }
	for i := 0; i < 1000; i++ {
		b := &replication.ChunkBatch{Entry: forged(i), Total: 1, Data: 1, Indices: []int{i}, Chunks: [][]byte{{1}}}
		n.HandleMessage(transport.Message{From: keys.NodeID{Group: 1, Index: 0}, Payload: b})
	}
	c.Drain(3 * time.Second)
	for i := 0; i < 1000; i++ {
		if n.entries[forged(i)] != nil || n.chunkFrom[forged(i)] != nil {
			t.Fatalf("rejected batch for %v left state (%d entries, %d chunkFrom)", forged(i), len(n.entries), len(n.chunkFrom))
		}
	}
}

// TestRejoinResetsOriginRows: a checkpointed install resets every origin row
// from the checkpoint — cursor, clock high-water, view fence, commit and
// execution watermarks — empties its buffered batches, its log and its
// takeover bookkeeping, marks it heard at the install, and keeps the node's
// own last-chunk observation. The rows are scribbled over first, and the
// checkpoint carries nothing to replay (no PBFT slot, no buffered batch), so
// the rows are exactly what the install wrote.
func TestRejoinResetsOriginRows(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	n := c.Nodes[keys.NodeID{Group: 1, Index: 2}].(*Node)
	ck := n.foldCheckpoint(n.ledger.Height())
	ck.State = n.DB().Clone()
	ck.LocalSlots, ck.MetaSlots, ck.Batches = nil, nil, nil
	if ck.ExecutedSeq[0] == 0 || ck.StreamTS[0] == 0 || ck.StreamNext[0] == 0 {
		t.Fatalf("the checkpoint holds empty rows: executed %v, ts %v, next %v", ck.ExecutedSeq, ck.StreamTS, ck.StreamNext)
	}
	const far = 1 << 40
	for g := range n.streams {
		row := &n.streams[g]
		row.next += 3
		row.ts += 3
		row.view += 3
		row.commitHi += 3
		row.executed += 3
		row.gapSince, row.gapAt = time.Second, 7
		row.repair.next(time.Second, time.Second)
		row.buffered[far] = &cluster.MetaBatch{FromGroup: g, Seq: far}
		row.log[far] = &cluster.MetaBatch{FromGroup: g, Seq: far}
		row.takeoverSent[types.EntryID{GID: g, Seq: far}] = true
		row.heard = 0
		row.bulkAt = time.Duration(g+1) * time.Hour
	}
	n.rejoining = true
	n.onRejoinResp(keys.NodeID{Group: 1, Index: 1}, &cluster.RejoinResp{C: ck})
	if n.rejoining {
		t.Fatalf("the checkpoint did not install: %s", c.Metrics.Summary())
	}
	for g, row := range n.streams {
		want := newStream()
		if g != n.g {
			want.next = ck.StreamNext[g]
		}
		want.ts, want.view = ck.StreamTS[g], ck.StreamView[g]
		want.commitHi, want.executed = ck.CommitHi[g], ck.ExecutedSeq[g]
		want.heard, want.bulkAt = n.now(), time.Duration(g+1)*time.Hour
		if !reflect.DeepEqual(row, want) {
			t.Errorf("row %d after install\n  %+v\nwant\n  %+v", g, row, want)
		}
	}
}

// FuzzNodeIntake delivers whatever the wire decoder accepts, from any node
// of the layout, to a fresh node built on a copy of a cluster node's context
// whose sends are swallowed, so a crasher replays from its input alone. The
// only property is that nothing panics.
func FuzzNodeIntake(f *testing.F) {
	c, err := cluster.New(smallCfg(), NewNode)
	if err != nil {
		f.Fatal(err)
	}
	base := c.Nodes[keys.NodeID{Group: 0, Index: 1}].(*Node)
	var peers []keys.NodeID
	for g, size := range c.Cfg.GroupSizes {
		for j := 0; j < size; j++ {
			peers = append(peers, keys.NodeID{Group: g, Index: j})
		}
	}
	for _, g := range []int{base.ng, 1<<31 - 1} {
		for k, p := range hostileEnvelopes(g, nil) {
			b, err := cluster.EncodeEnvelope(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(k), b)
		}
	}
	f.Fuzz(func(t *testing.T, sender uint8, data []byte) {
		p, err := cluster.DecodeEnvelope(data)
		if err != nil {
			return
		}
		ctx := *base.ctx
		ctx.Net = &recordingEndpoint{Endpoint: base.ctx.Net}
		New(&ctx).HandleMessage(transport.Message{From: peers[int(sender)%len(peers)], Payload: p})
	})
}
