package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/forensics"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/merkle"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/transport"
	"massbft/internal/types"
)

// TestByzantineChunkTampering runs §VI-E "Node Failures": from t=1s, f
// Byzantine nodes per group send and forward the tamper encoding of every
// entry under its honest certificate. Throughput continues after the attack
// starts and the correct nodes agree on the state. On this schedule the
// honest buckets reach n_data first, so no rebuild fails and nobody is
// blacklisted; TestTamperedBucketBlacklistsSupplier tests that defence.
func TestByzantineChunkTampering(t *testing.T) {
	t.Parallel()
	cfg := realCryptoCfg()
	cfg.RunFor = 4 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	// f=1 Byzantine node per group (n=4), active from t=1s.
	c.ScheduleByzantine(1*time.Second, 1)
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress under Byzantine nodes: %s", m.Summary())
	}
	// Throughput must continue after the attack starts.
	series := m.Series()
	lateTps := 0.0
	for _, p := range series {
		if p.Second >= 2 {
			lateTps += p.Throughput
		}
	}
	if lateTps == 0 {
		t.Fatal("throughput collapsed after Byzantine activation")
	}
	// All correct nodes still agree (Byzantine nodes run the same execution
	// since they follow local consensus; their only deviation is tampered
	// chunk transmission).
	assertConsistency(t, c, nil)
	assertCensus(t, c, "b423a65f654b07d7")
}

// TestScheduleByzantine: ScheduleByzantine(at, perGroup) tampers the chunk
// batches that followers 1..perGroup send from `at` on, 0 included, and no
// other node's. A batch is tampered when its Merkle root differs from the
// one its entry's leader sent under the same geometry: the leaders stay
// honest.
func TestScheduleByzantine(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		at       time.Duration
		perGroup int
	}{{0, 1}, {0, 2}, {time.Second, 1}, {time.Second, 2}} {
		t.Run(fmt.Sprintf("at=%v/perGroup=%d", tc.at, tc.perGroup), func(t *testing.T) {
			t.Parallel()
			cfg := smallCfg()
			cfg.RunFor = 2 * time.Second
			c, err := cluster.New(cfg, NewNode)
			if err != nil {
				t.Fatal(err)
			}
			type geometry struct {
				id          types.EntryID
				total, data int
			}
			type sent struct {
				from keys.NodeID
				at   time.Duration
				g    geometry
				root merkle.Root
			}
			leaderRoot := make(map[geometry]merkle.Root)
			var batches []sent
			c.Net.SetSendProbe(func(s simnet.ProbeSample) {
				var b *replication.ChunkBatch
				switch p := s.Payload.(type) {
				case *replication.ChunkBatch:
					b = p
				case *cluster.BatchFwd:
					b = p.B
				default:
					return
				}
				g := geometry{b.Entry, b.Total, b.Data}
				if s.From == (keys.NodeID{Group: b.Entry.GID}) {
					leaderRoot[g] = b.Root
				}
				batches = append(batches, sent{s.From, s.Enqueue, g, b.Root})
			})
			c.ScheduleByzantine(tc.at, tc.perGroup)
			c.Run()
			tampered, honest := 0, 0
			for _, b := range batches {
				want, ok := leaderRoot[b.g]
				if !ok {
					continue
				}
				byz := b.from.Index >= 1 && b.from.Index <= tc.perGroup && b.at >= tc.at
				switch {
				case b.root != want && !byz:
					t.Fatalf("%v sent a tampered batch of %v at %v", b.from, b.g.id, b.at)
				case b.root != want:
					tampered++
				case byz:
					honest++
				}
			}
			if tampered == 0 || honest != 0 {
				t.Fatalf("the Byzantine followers sent %d tampered and %d honest batches: %s", tampered, honest, c.Metrics.Summary())
			}
		})
	}
}

// bucketFixture is node N1,0 of a fresh realCryptoCfg cluster, whose sends
// are recorded, and entry e0,1 with its honest certificate; batch makes the
// chunk batch of index idx of an encoding of e under that certificate, as
// N1,0's plan for group 0 cuts it.
func bucketFixture(t *testing.T) (n *Node, e *types.Entry, batch func(entryEnc []byte, idx int) *replication.ChunkBatch, data int) {
	t.Helper()
	c, err := cluster.New(realCryptoCfg(), NewNode)
	if err != nil {
		t.Fatal(err)
	}
	n = c.Nodes[keys.NodeID{Group: 1, Index: 0}].(*Node)
	n.ctx.Net = &recordingEndpoint{Endpoint: n.ctx.Net}
	e = &types.Entry{ID: types.EntryID{GID: 0, Seq: 1}, Txns: []types.Transaction{
		{Client: 1, Payload: []byte("payload"), Sig: make([]byte, 64)},
	}}
	d := keys.Hash(e.Encode())
	cert := &keys.Certificate{Group: 0, Digest: d}
	for j := 0; j < c.Reg.QuorumSize(0); j++ {
		cert.Sigs = append(cert.Sigs, keys.SignCertificate(c.Pairs[0][j], 0, d))
	}
	p := n.recvPlan(0)
	batch = func(entryEnc []byte, idx int) *replication.ChunkBatch {
		t.Helper()
		encd, err := replication.Encode(entryEnc, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encd.Batch([]int{idx}, e.ID, cert)
		if err != nil {
			t.Fatal(err)
		}
		return &b
	}
	return n, e, batch, p.Data
}

// TestTamperedBucketBlacklistsSupplier: §VI-E's defence at one node. Peer X
// sends chunk batches of the tamper encoding under the honest certificate,
// enough to fill one bucket to n_data. The rebuild fails, X is blacklisted,
// and X's next batch, honest this time, never reaches the collector, while
// the same batch from another peer does.
func TestTamperedBucketBlacklistsSupplier(t *testing.T) {
	n, e, batch, data := bucketFixture(t)
	x, y := keys.NodeID{Group: 0, Index: 1}, keys.NodeID{Group: 0, Index: 2}
	for idx := 0; idx < data; idx++ {
		n.onChunkBatch(x, batch(cluster.Tamper(e), idx), true)
	}
	if rebuilds, failed, _ := n.collector.Stats(); rebuilds != 0 || failed != 1 {
		t.Fatalf("after a tampered bucket of %d chunks: %d rebuilds, %d failed; want 0, 1", data, rebuilds, failed)
	}
	if !n.blacklist[x] || len(n.blacklist) != 1 {
		t.Fatalf("blacklist %v, want only %v", n.blacklist, x)
	}
	honest := batch(e.Encode(), data) // an index the failed bucket did not ban
	n.onChunkBatch(x, honest, true)
	if root, _, _ := n.collector.Missing(e.ID); root != (merkle.Root{}) {
		t.Fatalf("the blacklisted peer's batch reached the collector (bucket %v)", root)
	}
	n.onChunkBatch(y, honest, true)
	if root, _, _ := n.collector.Missing(e.ID); root != honest.Root {
		t.Fatalf("another peer's honest batch did not reach the collector (bucket %v)", root)
	}
}

// TestFakeBucketBlamesAnHonestRelay pins ROADMAP item 5's defect at one node:
// a failed rebuild blames the first supplier of each index of the fake
// bucket, whichever bucket that supplier's chunk went to. Honest N1,1 relays
// chunk 0 of e0,1 to N1,0; Byzantine N0,1 then sends a tampered bucket under
// the honest certificate. Its rebuild fails and N1,0 blacklists the honest
// relay beside the liar, cutting it off for good. Item 5 flips the
// assertion: the blacklist must become {N0,1}.
func TestFakeBucketBlamesAnHonestRelay(t *testing.T) {
	n, e, batch, data := bucketFixture(t)
	relay, liar := keys.NodeID{Group: 1, Index: 1}, keys.NodeID{Group: 0, Index: 1}
	n.onChunkBatch(relay, batch(e.Encode(), 0), false)
	for idx := 0; idx < data; idx++ {
		n.onChunkBatch(liar, batch(cluster.Tamper(e), idx), true)
	}
	if rebuilds, failed, _ := n.collector.Stats(); rebuilds != 0 || failed != 1 {
		t.Fatalf("after a tampered bucket of %d chunks: %d rebuilds, %d failed; want 0, 1", data, rebuilds, failed)
	}
	if !n.blacklist[liar] || !n.blacklist[relay] || len(n.blacklist) != 2 {
		t.Fatalf("blacklist %v, want {%v, %v} (item 5's defect)", n.blacklist, liar, relay)
	}
}

// TestGroupCrashTakeover reproduces §VI-E "Group Failures": a whole data
// center dies; after the takeover timeout another group assigns timestamps
// from the crashed group's frozen clock and execution resumes.
func TestGroupCrashTakeover(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(2*time.Second, 0)
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics

	series := m.Series()
	var before, after float64
	for _, p := range series {
		if p.Second == 1 {
			before += p.Throughput
		}
		if p.Second >= 4 {
			after += p.Throughput
		}
	}
	if before == 0 {
		t.Fatalf("no throughput before crash: %s", m.Summary())
	}
	if after == 0 {
		t.Fatalf("throughput never recovered after group crash: %s", m.Summary())
	}
	// The surviving groups must agree with each other — both state and the
	// sealed ledger prefix.
	assertConsistency(t, c, map[int]bool{0: true})
	ref := c.Nodes[keys.NodeID{Group: 1, Index: 0}].(*Node).Ledger()
	if ref.Height() == 0 {
		t.Fatal("empty ledger after crash run")
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("ledger integrity: %v", err)
	}
	for g := 1; g < 3; g++ {
		for j := 0; j < 4; j++ {
			l := c.Nodes[keys.NodeID{Group: g, Index: j}].(*Node).Ledger()
			if l.Height() != ref.Height() || l.Head() != ref.Head() {
				t.Fatalf("node %d,%d ledger diverged", g, j)
			}
		}
	}
	assertCensus(t, c, "666cc916905c66a9")
}

// TestMassBFTOutperformsBaselineUnderLeaderBottleneck checks the paper's
// headline claim in miniature: with per-node WAN bandwidth as the
// bottleneck, MassBFT's spread-out chunk replication beats Baseline's
// leader-only copies by a wide margin (Fig 8).
func TestMassBFTOutperformsBaselineUnderLeaderBottleneck(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	run := func(opts cluster.Options) float64 {
		cfg := cluster.Config{
			GroupSizes:   []int{7, 7, 7},
			Opts:         opts,
			Workload:     "ycsb-a",
			Seed:         3,
			MaxBatch:     400,
			BatchTimeout: 20 * time.Millisecond,
			RunFor:       6 * time.Second,
			Warmup:       2 * time.Second,
			TrustAll:     true,
		}
		c, err := cluster.New(cfg, NewNode)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run().Throughput()
	}
	mass := run(cluster.PresetMassBFT())
	base := run(cluster.PresetBaseline())
	if mass <= base {
		t.Fatalf("MassBFT (%.0f tps) did not beat Baseline (%.0f tps)", mass, base)
	}
	if mass < 2*base {
		t.Fatalf("MassBFT (%.0f tps) should beat Baseline (%.0f tps) by a wide margin", mass, base)
	}
	t.Logf("MassBFT %.0f tps vs Baseline %.0f tps (%.1fx)", mass, base, mass/base)
}

// TestEncodedReplicationSavesWANTraffic checks the Fig 10 effect: per-entry
// WAN bytes under MassBFT are well below Baseline's f+1 full copies.
func TestEncodedReplicationSavesWANTraffic(t *testing.T) {
	t.Parallel()
	run := func(opts cluster.Options) float64 {
		cfg := cluster.Config{
			GroupSizes:   []int{7, 7, 7},
			Opts:         opts,
			Workload:     "ycsb-a",
			Seed:         4,
			MaxBatch:     100,
			BatchTimeout: 20 * time.Millisecond,
			RunFor:       3 * time.Second,
			Warmup:       500 * time.Millisecond,
			TrustAll:     true,
		}
		c, err := cluster.New(cfg, NewNode)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		return c.WANBytesPerEntry()
	}
	mass := run(cluster.PresetMassBFT())
	base := run(cluster.PresetBaseline())
	if mass >= base {
		t.Fatalf("MassBFT WAN/entry (%.0f B) not below Baseline (%.0f B)", mass, base)
	}
	t.Logf("WAN bytes per entry: MassBFT %.0f vs Baseline %.0f", mass, base)
}

// TestLocalLeaderCrashViewChange crashes a group leader node (not the whole
// group); the local view change must elect a new leader that resumes
// proposing.
func TestLocalLeaderCrashViewChange(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 6 * time.Second
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	// The view-change timer is armed from the start, so the two fault-free
	// seconds before the crash are the control: no view installs there.
	viewChanges := func() int64 {
		return c.Metrics.Counter("local-view-changes") + c.Metrics.Counter("meta-view-changes")
	}
	var beforeCrash int64 = -1
	c.Net.Schedule(2*time.Second, func() {
		beforeCrash = viewChanges()
		c.Net.Crash(keys.NodeID{Group: 0, Index: 0})
	})
	c.Run()
	if c.Metrics.Committed() == 0 {
		t.Fatalf("no progress: %s", c.Metrics.Summary())
	}
	if beforeCrash != 0 {
		t.Fatalf("%d view changes installed before any fault", beforeCrash)
	}
	if n := c.Metrics.Counter("local-view-changes"); n < 1 {
		t.Fatalf("local-view-changes = %d after the local leader crashed", n)
	}
	// Note: without a local view-change timeout configured the group simply
	// stops proposing but others continue; the stronger property (new
	// leader resumes) is exercised in the pbft package tests. Here we check
	// the cluster does not wedge.
	series := c.Metrics.Series()
	late := 0.0
	for _, p := range series {
		if p.Second >= 4 {
			late += p.Throughput
		}
	}
	if late == 0 {
		t.Fatal("cluster wedged after leader crash")
	}
}

// TestPartialSynchronyUnstableStart runs MassBFT through an unstable period
// (WAN latencies x10 until a scheduled restore at GST, §III-A): progress may
// be slow before GST but must be normal after.
func TestPartialSynchronyUnstableStart(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.RunFor = 6 * time.Second
	const gst = 2 * time.Second
	n := len(cfg.GroupSizes)
	cfg.Topology = simnet.ModelTopology(n, func(i, j int) time.Duration { return 10 * cluster.NationwideLatency(i, j) })
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Schedule(gst, func() { *cfg.Topology = *simnet.ModelTopology(n, cluster.NationwideLatency) })
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress across GST: %s", m.Summary())
	}
	var late float64
	for _, p := range m.Series() {
		if p.Second >= 3 {
			late += p.Throughput
		}
	}
	if late == 0 {
		t.Fatal("no post-GST throughput")
	}
	assertConsistency(t, c, nil)
}

// TestBaselineGroupCrashRoundSkip checks round-based ordering under a group
// crash: peers time out and skip the crashed group's round slots so the
// remaining groups keep executing.
func TestBaselineGroupCrashRoundSkip(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.Opts = cluster.PresetBaseline()
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(2*time.Second, 0)
	c.Run()
	var after float64
	for _, p := range c.Metrics.Series() {
		if p.Second >= 4 {
			after += p.Throughput
		}
	}
	if after == 0 {
		t.Fatalf("round ordering never skipped the crashed group: %s", c.Metrics.Summary())
	}
	assertCensus(t, c, "1ce6761f3adb69a3")
}

// TestNodeRejoinViaStateTransfer crashes a follower node mid-run and revives
// it. The emulator discards every timer that fired while the node was down,
// so a revived node is inert unless the checkpointed-rejoin path re-arms its
// tick loops and installs a peer's state transfer. The recovered node must
// converge to the exact cluster state — same state hash, same sealed ledger.
func TestNodeRejoinViaStateTransfer(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.RepairTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	c.ScheduleNodeCrash(2*time.Second, victim)
	c.ScheduleNodeRecover(3500*time.Millisecond, victim)
	c.Run()
	c.Drain(3 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("recovered node never installed a state transfer: %s", m.Summary())
	}
	if m.Counter("rejoin-served") == 0 {
		t.Fatalf("no peer served the rejoin request: %s", m.Summary())
	}
	// The recovered node participates in the consistency check: it must have
	// caught up completely, not just resumed.
	assertConsistency(t, c, nil)
	rec := c.Nodes[victim].(*Node).Ledger()
	ref := c.Nodes[keys.NodeID{Group: 1, Index: 0}].(*Node).Ledger()
	if ref.Height() == 0 {
		t.Fatal("empty reference ledger")
	}
	if rec.Height() != ref.Height() || rec.Head() != ref.Head() {
		t.Fatalf("recovered ledger diverged: height %d vs %d", rec.Height(), ref.Height())
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered ledger integrity: %v", err)
	}
}

// TestTransferRetryClock: a revived node's state transfer runs on the retry
// clock. Its group peers drop the first three checkpoints they serve it, so
// it asks four times: the re-asks go out after RejoinTimeout, then 2x, then
// 4x, each to the next lanPeer, and the fourth answer installs and ends the
// asks for the rest of the run.
func TestTransferRetryClock(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.RunFor = 5 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.RepairTimeout = 300 * time.Millisecond
	cfg.RejoinTimeout = 100 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	type ask struct {
		at time.Duration
		to keys.NodeID
	}
	var asks []ask
	c.Net.SetOutboundFilter(victim, func(m *transport.Message) bool {
		if _, ok := m.Payload.(*cluster.RejoinReq); ok {
			asks = append(asks, ask{c.Net.Now(), m.To})
		}
		return true
	})
	const dropped = 3
	drops := 0
	for j := 0; j < cfg.GroupSizes[victim.Group]; j++ {
		if j == victim.Index {
			continue
		}
		c.Net.SetOutboundFilter(keys.NodeID{Group: victim.Group, Index: j}, func(m *transport.Message) bool {
			if _, ok := m.Payload.(*cluster.RejoinResp); ok && m.To == victim && drops < dropped {
				drops++
				return false
			}
			return true
		})
	}
	c.ScheduleNodeCrash(2*time.Second, victim)
	c.ScheduleNodeRecover(3*time.Second, victim)
	c.Run()
	c.Drain(2 * time.Second)
	if drops != dropped {
		t.Fatalf("dropped %d checkpoints, want %d", drops, dropped)
	}
	if got := c.Metrics.Counter("state-transfers"); got != 1 {
		t.Fatalf("state-transfers = %d, want 1: %s", got, c.Metrics.Summary())
	}
	if len(asks) != dropped+1 {
		t.Fatalf("%d asks, want %d (one per dropped checkpoint, then the one that installs): %v", len(asks), dropped+1, asks)
	}
	n := c.Nodes[victim].(*Node)
	for a, q := range asks {
		if want, _ := n.lanPeer(a); q.to != want {
			t.Errorf("ask %d went to %v, want lanPeer(%d) = %v", a, q.to, a, want)
		}
		if a == 0 {
			if q.at != 3*time.Second {
				t.Errorf("first ask at %v, want at the revival, 3s", q.at)
			}
			continue
		}
		if gap, want := q.at-asks[a-1].at, cfg.RejoinTimeout<<(a-1); gap != want {
			t.Errorf("re-ask %d came %v after the previous ask, want %v", a, gap, want)
		}
	}
	assertConsistency(t, c, nil)
}

// TestFetchRetryRecoversFromCrashedTarget is the regression test for the
// Lemma V.1 entry-fetch path. Group 2 never receives group 0's chunks (they
// are dropped in flight), so fetched copies are its only way to obtain group
// 0's entries — and the historical single-shot fetch target, node (0,0) of
// the stamping group, is crashed mid-run. The old code sent exactly one
// EntryFetch to (0,0) and wedged forever; the retry path must back off and
// rotate to another holder (e.g. group 1, which rebuilt the entries) so the
// starved group still converges.
func TestFetchRetryRecoversFromCrashedTarget(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 8 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	// Drop every chunk addressed to group 2 by group 0's nodes.
	for j := 0; j < cfg.GroupSizes[0]; j++ {
		c.Net.SetOutboundFilter(keys.NodeID{Group: 0, Index: j}, func(m *transport.Message) bool {
			_, chunks := m.Payload.(*replication.ChunkBatch)
			return m.To.Group != 2 || !chunks
		})
	}
	// Crash the only target the single-shot implementation ever asked.
	c.ScheduleNodeCrash(2*time.Second, keys.NodeID{Group: 0, Index: 0})
	c.Run()
	c.Drain(3 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress: %s", m.Summary())
	}
	if m.Counter("fetch-retries") == 0 {
		t.Fatalf("fetch path never retried: %s", m.Summary())
	}
	// Every live node must agree; group 2 can only have reached this state
	// through fetched entry copies.
	crashed := keys.NodeID{Group: 0, Index: 0}
	var ref [32]byte
	var refSet bool
	for g, n := range c.Cfg.GroupSizes {
		for j := 0; j < n; j++ {
			id := keys.NodeID{Group: g, Index: j}
			if id == crashed {
				continue
			}
			h := c.StateHash(id)
			if !refSet {
				ref, refSet = h, true
				continue
			}
			if h != ref {
				t.Fatalf("node N%d,%d state diverges: %s", g, j, m.Summary())
			}
		}
	}
}

// TestByzantineSenderBatchRejection wires the wire-level Byzantine sender
// into the full protocol: from t=500ms node (0,0) — group 0's initial meta
// leader — tampers ~30% of its outgoing MetaBatch copies (one record
// timestamp perturbed per copy). The batch certificate binds the canonical
// record encoding, so every receiver must detect the mismatch and drop the
// copy (batch-cert-rejected) instead of ingesting a forged timestamp; the
// stream then heals through rebroadcast/repair and the cluster keeps
// committing. Because corruption samples per copy, the same broadcast also
// leaves the sender in differing versions — wire equivocation, surfaced via
// net-equivocated. The draw picks the record (its low half) and the bump of 1
// to 7 (its high half); the records are copied first, as the original is
// shared with every other recipient of the broadcast.
func TestByzantineSenderBatchRejection(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Seed = 31
	cfg.RunFor = 4 * time.Second
	cfg.RepairTimeout = 150 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Schedule(500*time.Millisecond, func() {
		c.Net.SetByzantineSender(keys.NodeID{Group: 0, Index: 0}, simnet.ByzantineSender{
			CorruptRate: 0.3,
			Corrupt: func(p any, draw uint64) any {
				b, ok := p.(*cluster.MetaBatch)
				if !ok || len(b.Records) == 0 {
					return nil
				}
				cp := *b
				cp.Records = append([]cluster.Record(nil), b.Records...)
				i := uint32(draw) % uint32(len(cp.Records))
				cp.Records[i].TS += 1 + (draw>>32)%7
				return &cp
			},
		})
	})
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress under Byzantine meta leader: %s", m.Summary())
	}
	if m.Counter("net-corrupted") == 0 {
		t.Fatalf("sender never corrupted a batch: %s", m.Summary())
	}
	if m.Counter("net-equivocated") == 0 {
		t.Fatalf("per-copy corruption never produced wire equivocation: %s", m.Summary())
	}
	if m.Counter("batch-cert-rejected") == 0 {
		t.Fatalf("no receiver rejected a tampered batch: %s", m.Summary())
	}
	// Tampered copies must die at the certificate check — a forged timestamp
	// that reached record processing would surface as a certified conflict.
	if m.Counter("ts-conflicts") != 0 {
		t.Fatalf("forged timestamp leaked past the batch certificate: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
}

// TestRejoinRejectsCorruptSuffix is the regression test for verifiable
// checkpoint transfer: a recovering node must not install a state transfer
// whose ledger suffix fails chain/state-roll verification. The victim's
// first rejoin target after recovery is its next ring peer (1,3); that peer
// is made Byzantine for RejoinResp payloads only, tampering the last
// block's state digest in every checkpoint it serves. The victim must count
// the rejection (rejoin-badsuffix), rotate to an honest peer, and still
// converge to the group's exact ledger.
func TestRejoinRejectsCorruptSuffix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.RepairTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	evil := keys.NodeID{Group: 1, Index: 3}
	c.Net.SetByzantineSender(evil, simnet.ByzantineSender{
		CorruptRate: 1.0,
		Corrupt: func(p any, _ uint64) any {
			resp, ok := p.(*cluster.RejoinResp)
			if !ok || resp.C == nil || len(resp.C.Blocks) == 0 {
				return nil
			}
			// Deep-copy down to the block being tampered: the originals are
			// the serving node's live ledger blocks.
			cp := *resp
			ck := *resp.C
			cp.C = &ck
			ck.Blocks = append([]*ledger.Block(nil), resp.C.Blocks...)
			last := *ck.Blocks[len(ck.Blocks)-1]
			last.StateDigest[0] ^= 0xff
			ck.Blocks[len(ck.Blocks)-1] = &last
			return &cp
		},
	})
	c.ScheduleNodeCrash(2*time.Second, victim)
	c.ScheduleNodeRecover(3500*time.Millisecond, victim)
	c.Run()
	c.Drain(3 * time.Second)
	m := c.Metrics
	if m.Counter("rejoin-badsuffix") == 0 {
		t.Fatalf("tampered checkpoint suffix was never rejected: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("victim never installed an honest state transfer: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
	rec := c.Nodes[victim].(*Node).Ledger()
	ref := c.Nodes[keys.NodeID{Group: 1, Index: 0}].(*Node).Ledger()
	if ref.Height() == 0 {
		t.Fatal("empty reference ledger")
	}
	if rec.Height() != ref.Height() || rec.Head() != ref.Head() {
		t.Fatalf("recovered ledger diverged: height %d vs %d", rec.Height(), ref.Height())
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("recovered ledger integrity: %v", err)
	}
}

// TestRejoinRejectsForgedPendingEntry: the pending entries of a checkpoint
// are not on the ledger suffix verifySuffix checks, so each one that carries
// content must be certified the way a fetched copy is. The victim's first
// rejoin target (1,3) serves every checkpoint with the last value byte of one
// write flipped in each pending entry, the certificates left as they were.
// Installed, those entries would execute on the victim alone; it must reject
// the whole checkpoint (rejoin-badpending), rotate to an honest peer, and end
// in the group's state.
func TestRejoinRejectsForgedPendingEntry(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 4500 * time.Millisecond
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.RepairTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	evil := keys.NodeID{Group: 1, Index: 3}
	forged := 0
	c.Net.SetByzantineSender(evil, simnet.ByzantineSender{
		CorruptRate: 1.0,
		Corrupt: func(p any, _ uint64) any {
			resp, ok := p.(*cluster.RejoinResp)
			if !ok || resp.C == nil {
				return nil
			}
			// Deep-copy down to the payload being flipped: the originals are
			// the serving node's live entries.
			cp := *resp
			ck := *resp.C
			cp.C = &ck
			ck.Pending = append([]cluster.PendingEntry(nil), resp.C.Pending...)
			for i, pe := range ck.Pending {
				if pe.Entry == nil {
					continue
				}
				e := *pe.Entry
				e.Txns = append([]types.Transaction(nil), e.Txns...)
				for k := range e.Txns {
					if len(e.Txns[k].Payload) > 10 { // a YCSB write: op, row, column, value
						pl := append([]byte(nil), e.Txns[k].Payload...)
						pl[len(pl)-1] ^= 0xff
						e.Txns[k].Payload = pl
						ck.Pending[i].Entry = &e
						forged++
						break
					}
				}
			}
			return &cp
		},
	})
	c.ScheduleNodeCrash(2*time.Second, victim)
	c.ScheduleNodeRecover(3500*time.Millisecond, victim)
	c.Run()
	c.Drain(3 * time.Second)
	m := c.Metrics
	if forged == 0 {
		t.Fatalf("no pending entry was forged — test exercised nothing: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
	if m.Counter("rejoin-badpending") == 0 {
		t.Fatalf("forged pending entries were never rejected: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("victim never installed an honest state transfer: %s", m.Summary())
	}
}

// TestRejoinRejectsForgedGroupTable: a checkpoint's group table decides the
// quorum denominator, so it is checked before anything installs. The victim's
// first rejoin target (1,3) serves every checkpoint with two departed rows
// past the layout added; installed, they would give the victim a table of
// five groups in a layout of three. The victim
// must refuse the checkpoint (rejoin-badgroups), install an honest peer's,
// and end in the group's state with the honest count.
func TestRejoinRejectsForgedGroupTable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.RunFor = 4500 * time.Millisecond
	cfg.TakeoverTimeout = 300 * time.Millisecond
	cfg.RepairTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	victim := keys.NodeID{Group: 1, Index: 2}
	evil := keys.NodeID{Group: 1, Index: 3}
	forged := 0
	c.Net.SetByzantineSender(evil, simnet.ByzantineSender{
		CorruptRate: 1.0,
		Corrupt: func(p any, _ uint64) any {
			resp, ok := p.(*cluster.RejoinResp)
			if !ok || resp.C == nil {
				return nil
			}
			cp := *resp
			ck := *resp.C
			cp.C = &ck
			gone := cluster.CheckpointGroup{Row: cluster.GroupRow{State: cluster.GroupDeparted}}
			ck.Groups = append(slices.Clone(resp.C.Groups), gone, gone)
			forged++
			return &cp
		},
	})
	c.ScheduleNodeCrash(2*time.Second, victim)
	c.ScheduleNodeRecover(3500*time.Millisecond, victim)
	c.Run()
	c.Drain(3 * time.Second)
	m := c.Metrics
	if forged == 0 {
		t.Fatalf("no checkpoint was forged — test exercised nothing: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
	if got := len(c.Nodes[victim].(*Node).groups.members()); got != 3 {
		t.Fatalf("victim counts %d member groups, want 3: %s", got, m.Summary())
	}
	if m.Counter("rejoin-badgroups") == 0 {
		t.Fatalf("forged group tables were never rejected: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("victim never installed an honest state transfer: %s", m.Summary())
	}
}

// TestTakeoverBookkeepingGC is the regression test for takeoverSent
// garbage collection. During a group-death takeover, successors stamp the
// dead group's committed tail on its behalf and remember each emitted stamp
// so retries stay idempotent — but before the GC, those maps retained every
// stamped entry for the life of the process. Now execute() drops an entry
// from every origin row's takeoverSent the moment it executes (and a join
// clears the joined group's set), so after a takeover run nothing executed
// may linger in the bookkeeping.
func TestTakeoverBookkeepingGC(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := realCryptoCfg()
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(2*time.Second, 0)
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if m.Counter("takeover-stamps") == 0 {
		t.Fatalf("no takeover stamps emitted — test exercised nothing: %s", m.Summary())
	}
	if m.Counter("deaths-emitted") == 0 {
		t.Fatalf("group death never certified: %s", m.Summary())
	}
	checked := 0
	for id, raw := range c.Nodes {
		if id.Group == 0 {
			continue // the crashed group's state is frozen mid-flight
		}
		n := raw.(*Node)
		for stream, row := range n.streams {
			for eid := range row.takeoverSent {
				checked++
				if eid.Seq <= n.streams[eid.GID].executed {
					t.Fatalf("node %v: executed entry %v lingers in takeoverSent[%d] (executed watermark %d)",
						id, eid, stream, n.streams[eid.GID].executed)
				}
			}
		}
	}
	t.Logf("takeoverSent retains %d unexecuted ids across live nodes", checked)
}

// TestByzantineCertMangling covers the collector bugfix end to end: a
// Byzantine node forwards honest chunk batches whose quorum certificate has a
// flipped signature byte. The chunks are genuine — root, proofs, and payload
// all verify — so they land in the honest (root, dataLen) bucket alongside
// correct peers' chunks, with the mangled certificate as one candidate. When
// such a batch completes a bucket, rebuild validation must fall back to
// another candidate certificate instead of banning the honest bucket: the
// cluster keeps committing, rebuild retries are counted, and no state
// diverges. Before the fix the triggering certificate's failure banned the
// bucket wholesale, discarding honest chunks.
func TestByzantineCertMangling(t *testing.T) {
	t.Parallel()
	cfg := realCryptoCfg()
	cfg.RunFor = 4 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	evil := keys.NodeID{Group: 0, Index: 1}
	c.Net.SetByzantineSender(evil, simnet.ByzantineSender{
		CorruptRate: 1.0,
		Corrupt: func(p any, _ uint64) any {
			b, ok := p.(*replication.ChunkBatch)
			if !ok || b.Cert == nil || len(b.Cert.Sigs) == 0 {
				return nil
			}
			// Deep-copy down to the signature being flipped: the original
			// certificate is shared with the sender's own state.
			cp := *b
			cert := *b.Cert
			cert.Sigs = append([]keys.Signature(nil), b.Cert.Sigs...)
			sig := cert.Sigs[0]
			sig.Sig = append([]byte(nil), sig.Sig...)
			sig.Sig[0] ^= 0xff
			cert.Sigs[0] = sig
			cp.Cert = &cert
			return &cp
		},
	})
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no transactions committed under cert mangling: %s", m.Summary())
	}
	if m.Counter("cert-retries") == 0 {
		t.Fatalf("mangled certificates never forced a certificate retry — "+
			"the Byzantine sender exercised nothing: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
}

// TestByzantineLeaderCannotCertifyOneIDTwice: a local leader proposes one
// entry ID at two slots, under two payloads. An entry's seq is its slot + 1,
// so every member — the leader's own replica too — refuses the second
// pre-prepare: no member accepts or commits that slot, no second certificate
// for the ID exists, and every member holds the first payload.
func TestByzantineLeaderCannotCertifyOneIDTwice(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	leader := c.Nodes[keys.NodeID{Group: 0, Index: 0}].(*Node)
	var slot uint64
	var encs [2][]byte
	c.Net.Schedule(500*time.Millisecond, func() {
		slot = leader.local.NextSlot()
		for i := range encs {
			e := &types.Entry{ID: types.EntryID{GID: 0, Seq: slot + 1}, Term: 1,
				Txns: []types.Transaction{leader.ctx.Gen.Next(uint64(i))}}
			encs[i] = e.Encode()
			if err := leader.local.Propose(encs[i]); err != nil {
				t.Error(err)
			}
		}
	})
	var second []string
	c.OnTransition = func(id keys.NodeID, tr cluster.Transition) {
		if encs[1] != nil && id.Group == 0 && tr.Kind.Phase() && tr.At == slot+1 {
			second = append(second, id.String()+" "+tr.Kind.String())
		}
	}
	c.Run()
	if encs[1] == nil {
		t.Fatal("the double proposal never ran")
	}
	if len(second) > 0 {
		t.Fatalf("the second slot of one entry ID made progress: %v", second)
	}
	id := types.EntryID{GID: 0, Seq: slot + 1}
	for j := 0; j < 4; j++ {
		n := c.Nodes[keys.NodeID{Group: 0, Index: j}].(*Node)
		enc, cert, ok := n.entryContent(id)
		if !ok || string(enc) != string(encs[0]) || cert.Digest != keys.Hash(encs[0]) {
			t.Fatalf("N0,%d does not hold %v under the first payload", j, id)
		}
	}
}

// TestMetaBatchReplayedUnderAnotherSeq pins a known safety bug. A MetaBatch's
// Seq is outside the bytes its certificate covers (the records only), so a
// Byzantine member that relays group 1's stream re-labelled — each batch it
// sends replaced by the previous one, records and certificate, under the new
// seq — gets the replay accepted, and the receivers it reached order
// differently from the rest: the ledger forks with no rejected certificate.
// Putting the seq inside the certified meta payload fixes it, and changes
// this test with it.
func TestMetaBatchReplayedUnderAnotherSeq(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = 2 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	var prev, cur *cluster.MetaBatch
	c.Net.SetByzantineSender(keys.NodeID{Group: 1, Index: 0}, simnet.ByzantineSender{
		CorruptRate: 1,
		Corrupt: func(payload any, _ uint64) any {
			b, ok := payload.(*cluster.MetaBatch)
			if !ok || b.FromGroup != 1 {
				return nil
			}
			if b != cur {
				prev, cur = cur, b
			}
			if prev == nil {
				return nil
			}
			return &cluster.MetaBatch{FromGroup: 1, Seq: b.Seq, Records: prev.Records, Cert: prev.Cert}
		},
	})
	c.Run()
	c.Drain(3 * time.Second)
	rep := c.AgreementReport(nil)
	const height = 88
	if rep.Verdict != forensics.Forked || rep.FirstDivergentHeight != height || len(rep.Branches) < 2 {
		t.Fatalf("want forked at %d, got: %v", height, rep)
	}
	if got := fmt.Sprint(rep.Branches[0].Entry, rep.Branches[1].Entry); got != "e2,30 e0,29" {
		t.Fatalf("forked between %s, want e2,30 e0,29", got)
	}
	if n := c.Metrics.Counter("batch-cert-rejected"); n != 0 {
		t.Fatalf("batch-cert-rejected = %d: the replay was caught", n)
	}
}
