package cluster

import (
	"reflect"
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/transport"
	"massbft/internal/types"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{GroupSizes: []int{4, 4}}
	d := cfg.withDefaults()
	if d.Workload != "ycsb-a" || d.BatchTimeout != 20*time.Millisecond ||
		d.MaxBatch != 400 || d.PipelineDepth != 16 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	if d.Observer() != (keys.NodeID{Group: 1, Index: 0}) {
		t.Fatalf("observer default wrong: %v", d.Observer())
	}
	if d.Cost == (CostModel{}) {
		t.Fatal("cost default missing")
	}
}

func TestLatencyMatricesSymmetric(t *testing.T) {
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if NationwideLatency(i, j) != NationwideLatency(j, i) {
				t.Fatalf("nationwide asymmetric at (%d,%d)", i, j)
			}
			if (i == j) != (NationwideLatency(i, j) == 0) {
				t.Fatalf("nationwide diagonal wrong at (%d,%d)", i, j)
			}
		}
	}
	// RTTs within the paper's stated ranges for the first three groups.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			rtt := 2 * NationwideLatency(i, j)
			if rtt < 26700*time.Microsecond || rtt > 43400*time.Microsecond {
				t.Fatalf("nationwide RTT(%d,%d)=%v outside 26.7-43.4 ms", i, j, rtt)
			}
			rtt = 2 * WorldwideLatency(i, j)
			if rtt < 156*time.Millisecond || rtt > 206*time.Millisecond {
				t.Fatalf("worldwide RTT(%d,%d)=%v outside 156-206 ms", i, j, rtt)
			}
		}
	}
}

func TestPresets(t *testing.T) {
	if o := PresetMassBFT(); o.Replication != ReplEncoded || o.Ordering != OrderAsync ||
		!o.GlobalConsensus || !o.OverlapVTS {
		t.Fatalf("massbft preset wrong: %+v", o)
	}
	if o := PresetBaseline(); o.Replication != ReplOneWay || o.Ordering != OrderRound || !o.GlobalConsensus {
		t.Fatalf("baseline preset wrong: %+v", o)
	}
	if o := PresetGeoBFT(); o.GlobalConsensus {
		t.Fatal("geobft preset must disable global consensus")
	}
	if o := PresetSteward(); !o.Serial {
		t.Fatal("steward preset must be serial")
	}
	if o := PresetISS(time.Second); o.EpochLength != time.Second {
		t.Fatal("iss preset epoch wrong")
	}
	if o := PresetBR(); o.Replication != ReplBijective {
		t.Fatal("br preset wrong")
	}
	if o := PresetEBR(); o.Replication != ReplEncoded || o.Ordering != OrderRound {
		t.Fatal("ebr preset wrong")
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: RecTS, Stream: 2, Entry: EntryIDFor(1, 42), TS: 17, View: 3},
		{Kind: RecAccept, Stream: 0, Entry: EntryIDFor(0, 1)},
		{Kind: RecCommit, Stream: 1, Entry: EntryIDFor(2, 9), TS: 3, View: 1},
	}
	buf := EncodeRecords(recs)
	got, ok := DecodeRecords(buf)
	if !ok || len(got) != len(recs) {
		t.Fatalf("decode failed: ok=%v len=%d", ok, len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordsDecodeErrors(t *testing.T) {
	if _, ok := DecodeRecords(nil); ok {
		t.Fatal("decoded nil")
	}
	if _, ok := DecodeRecords([]byte{0, 0, 0, 2, 1}); ok {
		t.Fatal("decoded truncated records")
	}
	buf := EncodeRecords([]Record{{Kind: RecTS}})
	if _, ok := DecodeRecords(append(buf, 9)); ok {
		t.Fatal("decoded records with trailing bytes")
	}
}

func TestWireSizes(t *testing.T) {
	recs := []Record{{Kind: RecTS, Entry: EntryIDFor(0, 1), TS: 1}}
	mb := &MetaBatch{FromGroup: 1, Seq: 3, Records: recs}
	if mb.WireSize() <= 0 {
		t.Fatal("MetaBatch size")
	}
	withCert := &MetaBatch{FromGroup: 1, Seq: 3, Records: recs, Cert: &keys.Certificate{}}
	if withCert.WireSize() <= mb.WireSize() {
		t.Fatal("certificate not accounted")
	}
	ef := &EntryFetch{Entry: EntryIDFor(0, 1)}
	if ef.WireSize() != 13 {
		t.Fatalf("EntryFetch size %d", ef.WireSize())
	}
}

// tamperedSenders runs a 2×4 stub cluster set up by schedule and, at each
// of sendAt, has every node send its group's next node an honest chunk batch
// of an entry the decode memo holds. It returns, per send time, the senders
// whose batch arrived tampered: another Merkle root over the same geometry.
func tamperedSenders(t *testing.T, schedule func(c *Cluster), sendAt ...time.Duration) []map[keys.NodeID]bool {
	t.Helper()
	nodes := make(map[keys.NodeID]*stubNode)
	c, err := New(Config{GroupSizes: []int{4, 4}, RunFor: time.Second},
		func(ctx *NodeCtx) Node {
			n := &stubNode{ctx: ctx}
			nodes[ctx.ID] = n
			return n
		})
	if err != nil {
		t.Fatal(err)
	}
	e := &types.Entry{ID: types.EntryID{GID: 0, Seq: 1}, Txns: []types.Transaction{
		{Client: 1, Payload: []byte("payload"), Sig: make([]byte, 64)},
	}}
	enc := e.Encode()
	c.DecodeMemo.Put(e.ID, Decoded{Payload: enc, Entry: e})
	encd, err := replication.Encode(enc, &plan.Plan{Total: 4, Data: 2, Parity: 2})
	if err != nil {
		t.Fatal(err)
	}
	honest, err := encd.Batch([]int{0, 1}, e.ID, &keys.Certificate{Group: 0, Digest: keys.Hash(enc)})
	if err != nil {
		t.Fatal(err)
	}
	schedule(c)
	for _, at := range sendAt {
		c.Net.Schedule(at, func() {
			for id, n := range nodes {
				b := honest
				n.ctx.Net.Send(keys.NodeID{Group: id.Group, Index: (id.Index + 1) % 4}, &b, b.WireSize())
			}
		})
	}
	c.RunUntil(sendAt[len(sendAt)-1] + 500*time.Millisecond)
	tampered := make([]map[keys.NodeID]bool, len(sendAt))
	for k := range tampered {
		tampered[k] = make(map[keys.NodeID]bool)
	}
	received := 0
	for _, n := range nodes {
		for i, m := range n.got {
			b, ok := m.Payload.(*replication.ChunkBatch)
			if !ok || b.Entry != e.ID || b.Total != honest.Total || b.Data != honest.Data {
				t.Fatalf("%v delivered %T %+v", m.From, m.Payload, m.Payload)
			}
			received++
			if b.Root != honest.Root {
				// The send it belongs to is the last one before it arrived.
				k := len(sendAt) - 1
				for k > 0 && sendAt[k] > n.gotAt[i] {
					k--
				}
				tampered[k][m.From] = true
			}
		}
	}
	if received != len(sendAt)*len(nodes) {
		t.Fatalf("%d batches delivered, want %d", received, len(sendAt)*len(nodes))
	}
	return tampered
}

// TestFaultPlan: the Byzantine followers activate at the scheduled virtual
// time, 0 included, and not before; with nothing scheduled no node tampers.
func TestFaultPlan(t *testing.T) {
	followers := map[keys.NodeID]bool{{Group: 0, Index: 1}: true, {Group: 1, Index: 1}: true}
	none := tamperedSenders(t, func(*Cluster) {}, 100*time.Millisecond)
	if len(none[0]) != 0 {
		t.Fatalf("no fault scheduled, yet %v tampered", none[0])
	}
	got := tamperedSenders(t, func(c *Cluster) { c.ScheduleByzantine(500*time.Millisecond, 1) },
		100*time.Millisecond, 600*time.Millisecond)
	if len(got[0]) != 0 {
		t.Fatalf("%v tampered before activation", got[0])
	}
	if !reflect.DeepEqual(got[1], followers) {
		t.Fatalf("after activation %v tampered, want %v", got[1], followers)
	}
	fromStart := tamperedSenders(t, func(c *Cluster) { c.ScheduleByzantine(0, 1) }, 0)
	if !reflect.DeepEqual(fromStart[0], followers) {
		t.Fatalf("scheduled at 0, %v tampered, want %v", fromStart[0], followers)
	}
}

func TestNewClusterErrors(t *testing.T) {
	noop := func(ctx *NodeCtx) Node { return nil }
	if _, err := New(Config{}, noop); err == nil {
		t.Fatal("no groups accepted")
	}
	if _, err := New(Config{GroupSizes: []int{4}, Workload: "bogus"}, noop); err == nil {
		t.Fatal("bogus workload accepted")
	}
	if _, err := New(Config{GroupSizes: []int{4, 4, 4}, Topology: simnet.NewTopology(2)}, noop); err == nil {
		t.Fatal("a topology smaller than the layout accepted")
	}
}

// stubNode lets the harness be tested without protocol logic; it records
// what it is delivered, and when.
type stubNode struct {
	started int
	ctx     *NodeCtx
	got     []transport.Message
	gotAt   []time.Duration
}

func (s *stubNode) Start() { s.started++ }
func (s *stubNode) HandleMessage(m transport.Message) {
	s.got = append(s.got, m)
	s.gotAt = append(s.gotAt, s.ctx.Net.Now())
}

func TestClusterWiring(t *testing.T) {
	var nodes []*stubNode
	c, err := New(Config{GroupSizes: []int{2, 3}, Seed: 5, RunFor: time.Second},
		func(ctx *NodeCtx) Node {
			n := &stubNode{ctx: ctx}
			nodes = append(nodes, n)
			return n
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 5 || len(nodes) != 5 {
		t.Fatalf("built %d nodes", len(nodes))
	}
	observers := 0
	for _, n := range nodes {
		if n.ctx.IsObserver {
			observers++
		}
		if n.ctx.Engine == nil || n.ctx.Gen == nil || n.ctx.Net == nil || n.ctx.KP == nil {
			t.Fatal("incomplete NodeCtx")
		}
	}
	if observers != 1 {
		t.Fatalf("%d observers, want 1", observers)
	}
	if got, want := c.Cfg.Topology.Latency(0, 1), NationwideLatency(0, 1); got != want {
		t.Fatalf("default topology: latency(0,1) = %v, want the nationwide %v", got, want)
	}
	c.RunUntil(100 * time.Millisecond)
	for _, n := range nodes {
		if n.started != 1 {
			t.Fatalf("Start called %d times", n.started)
		}
	}
	// Drain sets the flag shared with nodes.
	c.Drain(100 * time.Millisecond)
	if !c.Cfg.Draining {
		t.Fatal("Drain did not set Draining")
	}
	// StateHash on a node without a DB accessor returns zero.
	if c.StateHash(keys.NodeID{Group: 0, Index: 0}) != [32]byte{} {
		t.Fatal("stub node should have zero state hash")
	}
}

func TestScheduleByzantineSkipsLeaders(t *testing.T) {
	got := tamperedSenders(t, func(c *Cluster) { c.ScheduleByzantine(time.Millisecond, 2) }, 10*time.Millisecond)[0]
	for g := 0; g < 2; g++ {
		if got[keys.NodeID{Group: g, Index: 0}] {
			t.Fatalf("leader of group %d tampered", g)
		}
		for j := 1; j <= 2; j++ {
			if !got[keys.NodeID{Group: g, Index: j}] {
				t.Fatalf("node %d,%d not Byzantine", g, j)
			}
		}
		if got[keys.NodeID{Group: g, Index: 3}] {
			t.Fatalf("node %d,3 tampered beyond perGroup", g)
		}
	}
}
