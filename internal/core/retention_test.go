package core

import (
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/merkle"
	"massbft/internal/replication"
	"massbft/internal/transport"
	"massbft/internal/types"
)

// recordingEndpoint keeps what a node sends instead of sending it: sent[i]
// went to to[i], on the priority lane if priority[i].
type recordingEndpoint struct {
	transport.Endpoint
	sent     []any
	to       []keys.NodeID
	priority []bool
}

func (r *recordingEndpoint) record(to keys.NodeID, p any, priority bool) {
	r.sent, r.to, r.priority = append(r.sent, p), append(r.to, to), append(r.priority, priority)
}

func (r *recordingEndpoint) Send(to keys.NodeID, p any, _ int)         { r.record(to, p, false) }
func (r *recordingEndpoint) SendPriority(to keys.NodeID, p any, _ int) { r.record(to, p, true) }

// TestRetentionIsBounded runs past partitionHorizon under WAN faults and a
// crash with a checkpointed rejoin, then checks that every per-node map and
// ring that outlives one entry stopped at its bound — the archive at
// partitionHorizon per group, everything keyed by live entries at what is in
// flight — and that an executed entry, kept
// only as its certified bytes, still answers both a fetch and a chunk repair.
func TestRetentionIsBounded(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.RunFor = 25 * time.Second
	cfg.WANDropRate = 0.05
	cfg.WANDupRate = 0.01
	cfg.FaultJitter = 0.1
	cfg.ViewChangeTimeout = 400 * time.Millisecond
	cfg.TakeoverTimeout = 400 * time.Millisecond
	cfg.RepairTimeout = 150 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	c.ScheduleNodeCrash(5*time.Second, victim)
	c.ScheduleNodeRecover(7*time.Second, victim)
	c.Run()
	m := c.Metrics
	if m.Counter("state-transfers") == 0 || m.Counter("repair-reqs") == 0 {
		t.Fatalf("the run exercised neither rejoin nor chunk repair: %s", m.Summary())
	}

	const bound = 64 // in flight: a pipeline of 8 per group, and its stragglers
	for id, nd := range c.Nodes {
		n := nd.(*Node)
		if got, max := len(n.archive), n.ng*partitionHorizon; got > max {
			t.Errorf("%v: archive holds %d entries, bound %d", id, got, max)
		}
		for g, row := range n.streams {
			if len(row.log) > partitionHorizon {
				t.Errorf("%v: the log of stream %d holds %d batches, bound %d", id, g, len(row.log), partitionHorizon)
			}
		}
		if l, mt := n.local.Retained(), n.meta.Retained(); l > 512 || mt > 512 {
			t.Errorf("%v: PBFT catch-up logs hold %d and %d slots, bound 512", id, l, mt)
		}
		for name, got := range map[string]int{
			"entries": len(n.entries), "collector": n.collector.Len(),
			"chunkFrom": len(n.chunkFrom),
		} {
			if got > bound {
				t.Errorf("%v: %s holds %d, bound %d", id, name, got, bound)
			}
		}
	}
	n := c.Nodes[keys.NodeID{}].(*Node)

	// One value memo for the cluster, within its bound: a value per
	// transaction of every entry the leaders may have unexecuted.
	values := n.ctx.Engine.Values
	for id, nd := range c.Nodes {
		if nd.(*Node).ctx.Engine.Values != values {
			t.Errorf("%v: the engine does not share the cluster's value memo", id)
		}
	}
	if got, max := values.Len(), len(c.Cfg.GroupSizes)*c.Cfg.PipelineDepth*c.Cfg.MaxBatch; got == 0 || got > max {
		t.Errorf("the value memo holds %d values, bound %d", got, max)
	}

	// One decode memo for the cluster, within its bound: an entry per entry
	// the leaders may have in flight.
	for id, nd := range c.Nodes {
		if nd.(*Node).ctx.DecodeMemo != n.ctx.DecodeMemo {
			t.Errorf("%v: the node does not share the cluster's decode memo", id)
		}
	}
	if got, max := n.ctx.DecodeMemo.Len(), len(c.Cfg.GroupSizes)*c.Cfg.PipelineDepth; got == 0 || got > max {
		t.Errorf("the decode memo holds %d entries, bound %d", got, max)
	}

	// One key index for the cluster, each key filed once, and no store
	// keeping a record for an id the index never gave out.
	ix := n.ctx.Engine.DB().Index()
	for id, nd := range c.Nodes {
		db := nd.(*Node).ctx.Engine.DB()
		if db.Index() != ix {
			t.Errorf("%v: the store is not on the cluster's key index", id)
		}
		if db.Records() > ix.Len() {
			t.Errorf("%v: the store keeps %d records for an index of %d keys", id, db.Records(), ix.Len())
		}
	}
	if err := ix.Verify(); err != nil {
		t.Error(err)
	}

	// An executed entry of another group, well inside the archive window.
	if n.streams[1].executed <= partitionHorizon {
		t.Fatalf("group 1 executed %d entries here, not past partitionHorizon %d", n.streams[1].executed, partitionHorizon)
	}
	id := types.EntryID{GID: 1, Seq: n.streams[1].executed - 100}
	if n.entries[id] != nil || n.archive[id] == nil {
		t.Fatalf("%v is not an archived executed entry", id)
	}
	rec := &recordingEndpoint{Endpoint: n.ctx.Net}
	n.ctx.Net = rec
	defer func() { n.ctx.Net = rec.Endpoint }()

	n.onEntryFetch(keys.NodeID{Group: 2, Index: 0}, &cluster.EntryFetch{Entry: id})
	if len(rec.sent) != 1 {
		t.Fatalf("a fetch of executed %v sent %d messages, want 1", id, len(rec.sent))
	}
	served, ok := rec.sent[0].(*cluster.EntryWAN)
	if !ok || served.E.Entry.ID != id {
		t.Fatalf("a fetch of executed %v was answered with %T", id, rec.sent[0])
	}
	if _, err := replication.ValidateEntryMsg(n.ctx.Reg, served.E); err != nil {
		t.Fatalf("the served copy of %v does not validate: %v", id, err)
	}

	rec.sent = nil
	missing := []int{0, 2}
	n.onChunkRepairReq(keys.NodeID{Group: 0, Index: 1}, &cluster.ChunkRepairReq{Entry: id, Missing: missing})
	if len(rec.sent) != 1 {
		t.Fatalf("a chunk repair of executed %v sent %d messages, want 1", id, len(rec.sent))
	}
	fwd, ok := rec.sent[0].(*cluster.BatchFwd)
	if !ok {
		t.Fatalf("a chunk repair of executed %v was answered with %T", id, rec.sent[0])
	}
	b := fwd.B
	want, err := replication.Encode(n.archive[id].enc, n.recvPlan(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Entry != id || b.Root != want.Tree.Root() || len(b.Indices) != len(missing) ||
		!merkle.VerifyMulti(b.Root, b.Total, b.Proof, b.Chunks) {
		t.Fatalf("the repair of executed %v is not the certified encoding's chunks %v", id, missing)
	}
}

// TestMemosRemoveEveryDuplicate: in a fault-free run, each certified entry is
// encoded once (the three 4-node groups share one plan) and decoded nowhere —
// the sender group seeds the rebuild memo with the certified payload — so the
// archive of every node holds that one buffer per entry: what the memos exist
// for, at their FIFO sizes.
func TestMemosRemoveEveryDuplicate(t *testing.T) {
	t.Parallel()
	c := runCluster(t, smallCfg())
	// hi returns the highest seq of group g that node n holds or executed;
	// seqs certify in order here, so it counts the entries of g it received.
	hi := func(n *Node, g int) uint64 {
		h := n.streams[g].executed
		for id, st := range n.entries {
			if id.GID == g && st.content && id.Seq > h {
				h = id.Seq
			}
		}
		return h
	}
	var certified, rebuilt uint64
	for g := range c.Cfg.GroupSizes {
		var own, foreign uint64
		for id, nd := range c.Nodes {
			h := hi(nd.(*Node), g)
			switch {
			case id.Group == g && h > own:
				own = h
			case id.Group != g && h > foreign:
				foreign = h
			}
		}
		certified += own
		rebuilt += foreign
	}
	enc, reb := c.Metrics.Counter("encode-memo-misses"), c.Metrics.Counter("rebuild-memo-misses")
	if certified == 0 || rebuilt == 0 || enc != int64(certified) || reb != 0 {
		t.Fatalf("encode-memo-misses %d for %d certified entries, rebuild-memo-misses %d for %d rebuilt (want none)",
			enc, certified, reb, rebuilt)
	}
	// The entries every node archived: each is one buffer cluster-wide.
	ref := c.Nodes[keys.NodeID{}].(*Node)
	shared := make(map[int]int)
	for id, a := range ref.archive {
		all := true
		for nid, nd := range c.Nodes {
			b := nd.(*Node).archive[id]
			if b == nil {
				all = false
			} else if &b.enc[0] != &a.enc[0] {
				t.Fatalf("%v archived %v in a buffer of its own", nid, id)
			}
		}
		if all {
			shared[id.GID]++
		}
	}
	if len(shared) != len(c.Cfg.GroupSizes) {
		t.Fatalf("entries archived on every node, by group: %v", shared)
	}
}
