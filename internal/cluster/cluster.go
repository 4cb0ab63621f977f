package cluster

import (
	"time"

	"massbft/internal/aria"
	"massbft/internal/fifo"
	"massbft/internal/forensics"
	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/metrics"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/statedb"
	"massbft/internal/trace"
	"massbft/internal/transport"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// Node is one protocol participant. Start is called once after every node is
// constructed and registered; message delivery happens through the
// transport.Handler interface.
type Node interface {
	transport.Handler
	Start()
}

// Factory constructs a protocol node for one cluster position.
type Factory func(ctx *NodeCtx) Node

// NodeCtx is everything a protocol node needs from its environment: the
// parts its process shares, and its own.
type NodeCtx struct {
	*Process
	ID keys.NodeID
	KP *keys.KeyPair
	// Net is this node's handle on the message fabric: its *simnet.Node in
	// simulated clusters, the TCP backend in real multi-process deployments
	// (massbft.StartNode).
	Net transport.Endpoint
	// Gen is the group-shared transaction generator (only the current group
	// leader pulls from it).
	Gen workload.Workload
	// Engine executes ordered entries against this node's own state copy,
	// whose values and key index it shares with the process's other stores
	// (Engine.Values, statedb.Store.Index).
	Engine *aria.Engine
	// IsObserver marks the node that records throughput and latency into
	// Metrics (all correct nodes execute identically).
	IsObserver bool
	// Gateway is this node's client front end; nil unless Cfg.Gateway.Enabled().
	// The proposer pulls batches from it and the execution path reports
	// executed client transactions back into its dedup window.
	Gateway *gateway.Gateway
	// ReplyOut routes one signed ClientReply toward its client. The
	// environment sets it (the sim ClientHub, or a TCP gateway server); nil
	// drops replies (direct-injection workloads produce none).
	ReplyOut func(*ClientReply)
}

// Process is what the nodes one process runs share: every node of a
// simulated cluster, or a massbft-node's one.
type Process struct {
	Cfg Config
	// Reg and Pairs, and ClientKeys and ClientReg under Cfg.Gateway.Enabled().
	*Identities
	// Metrics is the process's collector; every node counts into it.
	Metrics *metrics.Collector
	// Trace is the span recorder; nil when tracing is off (all recorder
	// methods are nil-safe no-ops, so nodes record unconditionally).
	Trace *trace.Recorder
	// OnTransition, when non-nil, sees every transition a node of the
	// process reports; it only reads, so a run with it is the run without.
	OnTransition func(id keys.NodeID, tr Transition)
	// EncodeMemo and RebuildMemo memoize the deterministic erasure
	// transforms of the entries in flight, one value per entry the leaders
	// may have unexecuted (PipelineDepth per group; CPU is still charged per
	// node), and values one value per transaction of those entries: bounds
	// that grow with the cluster, where a fixed one sized for three groups
	// decoded each bucket seven times over at fifty (DESIGN §8). The sender
	// group seeds RebuildMemo with an entry's certified payload as it encodes
	// it, so the rebuilds of all receivers return that one buffer. A seed must
	// outlive the WAN transfer to the last receiver, which its leader does not
	// wait for, so RebuildMemo holds two pipelines: at one, a seed evicted
	// early costs a decode and a put that evicts the next seed, and 7×7
	// decoded three entries in four. Each grows to its bound as it fills.
	// A one-node process (massbft-node) has no RebuildMemo: nil is none.
	// index files the keys of every store.
	EncodeMemo  *replication.EncodeMemo
	RebuildMemo *replication.RebuildMemo
	// DecodeMemo holds, by entry ID, the decoded form of the local-consensus
	// payloads in flight, so the nodes of a group decode each entry once: its
	// leader puts the entry it built as it proposes, and a node that finds no
	// value for the payload it holds decodes and puts its own. A value serves
	// only a payload equal to its own. Bounded like EncodeMemo.
	DecodeMemo *fifo.Memo[types.EntryID, Decoded]
	values     *aria.ValueMemo
	index      *statedb.Index
}

// Decoded is one DecodeMemo value: an entry and the payload it decodes from.
// Both are read-only (DESIGN §8 "Who owns the bytes").
type Decoded struct {
	Payload []byte
	Entry   *types.Entry
}

// NewProcess returns a process's shared parts: a fresh key index and fresh
// memos.
func NewProcess(cfg Config, ids *Identities, col *metrics.Collector) *Process {
	inFlight := len(cfg.GroupSizes) * cfg.PipelineDepth
	return &Process{
		Cfg: cfg, Identities: ids, Metrics: col,
		EncodeMemo:  replication.NewEncodeMemo(inFlight),
		RebuildMemo: replication.NewRebuildMemo(2 * inFlight),
		DecodeMemo:  fifo.NewMemo[types.EntryID, Decoded](inFlight),
		values:      aria.NewValueMemo(inFlight * cfg.MaxBatch),
		index:       statedb.NewIndex(),
	}
}

// NodeCtx builds node id's context on the process: a store on the process's
// index loaded by gen, an engine over it on the value memo, and under
// Cfg.Gateway.Enabled() the node's gateway — the one gateway construction site
// of both fabrics. Receipts leave signed by the node's key through ReplyOut,
// which the caller sets once it has somewhere to route them; until then, and
// for direct-injection workloads, they are dropped unsigned.
func (p *Process) NodeCtx(id keys.NodeID, net transport.Endpoint, gen workload.Workload, observer bool) *NodeCtx {
	db := statedb.NewOn(p.index)
	gen.Load(db)
	ctx := &NodeCtx{Process: p, ID: id, KP: p.Pairs[id.Group][id.Index], Net: net, Gen: gen,
		Engine: aria.NewEngine(db, gen.Executor()), IsObserver: observer}
	ctx.Engine.Values = p.values
	if gw := p.Cfg.Gateway; gw.Enabled() {
		ctx.Gateway = gateway.New(gateway.Config{
			Group: id.Group, MaxBatch: p.Cfg.MaxBatch, MaxWait: p.Cfg.BatchTimeout,
			QueueLimit: gw.QueueLimit, RatePerClient: gw.RatePerClient, RateBurst: gw.RateBurst,
			Clients: p.ClientReg, Counts: &p.Metrics.Counts,
			Reply: func(rc *gateway.Receipt) {
				if ctx.ReplyOut != nil {
					SignReplies(id, ctx.KP.Sign, rc, ctx.ReplyOut)
				}
			},
		})
	}
	return ctx
}

// Identities is the key material every process of a deployment — a simulated
// cluster, a massbft-node, a client pool — derives from the shared Config
// alone. Trust is applied here so that signers and verifiers cannot disagree:
// under TrustAll both registries skip the cryptographic check and the node
// pairs sign with modelled tags (keys.ModelSigning), which a registry that
// does verify would reject.
type Identities struct {
	Pairs [][]*keys.KeyPair
	Reg   *keys.Registry
	// ClientKeys / ClientReg hold the registered client identities
	// (GenerateClients(Gateway.Clients, Seed)); nil unless Gateway.Enabled().
	ClientKeys []*keys.ClientKey
	ClientReg  *keys.ClientRegistry
}

// NewIdentities derives cfg's identities; cfg carries its defaults.
func NewIdentities(cfg *Config) (*Identities, error) {
	pairs, reg, err := keys.GenerateCluster(cfg.GroupSizes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reg.SetTrustAll(cfg.TrustAll)
	if cfg.TrustAll {
		keys.ModelSigning(pairs)
	}
	ids := &Identities{Pairs: pairs, Reg: reg}
	if cfg.Gateway.Enabled() {
		ids.ClientKeys, ids.ClientReg, err = keys.GenerateClients(cfg.Gateway.Clients, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ids.ClientReg.SetTrustAll(cfg.TrustAll)
	}
	return ids, nil
}

// newWorkload builds one generator+executor: the application's factory when
// set, else the built-in named by Workload.
func (c *Config) newWorkload(group int, seed int64) (workload.Workload, error) {
	if c.WorkloadFactory != nil {
		return c.WorkloadFactory(group, seed), nil
	}
	return workload.New(c.Workload, seed)
}

// GroupWorkload builds group g's generator, seeded the same on both fabrics.
func (c *Config) GroupWorkload(g int) (workload.Workload, error) {
	return c.newWorkload(g, c.Seed+int64(g)*1000)
}

// Cluster is a fully wired experiment: one process whose Trace is set under
// Cfg.TraceEnabled.
type Cluster struct {
	*Process
	// Net is the emulator the nodes are wired to: each node's Endpoint is
	// its *simnet.Node, and it schedules faults and accounts traffic.
	Net   *simnet.Network
	Nodes map[keys.NodeID]Node

	hub     *ClientHub
	started bool
}

// New builds a cluster: keys, network, workload generators, state stores,
// and one protocol node per position via factory.
func New(cfg Config, factory Factory) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids, err := NewIdentities(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Topology == nil {
		cfg.Topology = simnet.ModelTopology(len(cfg.GroupSizes), NationwideLatency)
	}
	nw := simnet.New(simnet.Config{GroupSizes: cfg.GroupSizes, Topology: cfg.Topology, Seed: cfg.Seed})
	nw.SetFaults(simnet.FaultConfig{
		WANDrop: cfg.WANDropRate,
		WANDup:  cfg.WANDupRate,
		LANDrop: cfg.LANDropRate,
		Jitter:  cfg.FaultJitter,
	})
	col := metrics.NewCollector()
	col.SetWindow(cfg.Warmup, cfg.RunFor-cfg.Warmup/2)

	c := &Cluster{
		Process: NewProcess(cfg, ids, col),
		Net:     nw,
		Nodes:   make(map[keys.NodeID]Node),
	}
	if cfg.TraceEnabled {
		c.Trace = trace.NewRecorder()
		nw.SetSendProbe(c.sendProbe)
	}

	for g, n := range cfg.GroupSizes {
		gen, err := cfg.GroupWorkload(g)
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			id := keys.NodeID{Group: g, Index: j}
			ctx := c.NodeCtx(id, nw.Node(id), gen, id == cfg.Observer())
			ctx.ReplyOut = c.routeReply
			node := factory(ctx)
			c.Nodes[id] = node
			nw.SetHandler(id, node)
		}
	}
	return c, nil
}

// sendProbe turns delivered WAN replication payloads into wan-chunk /
// wan-entry spans: uplink enqueue → downlink arrival, tagged with the queue
// wait and bulk backlog sampled from the sender's token-bucket interface.
// The span's Node is the receiver, so a vantage node's critical path picks
// up exactly the transfers addressed to it.
func (c *Cluster) sendProbe(s simnet.ProbeSample) {
	if !s.WAN {
		return
	}
	var id types.EntryID
	var stage string
	switch p := s.Payload.(type) {
	case *replication.ChunkBatch:
		id, stage = p.Entry, trace.StageWANChunk
	case *EntryWAN:
		if p.E == nil || p.E.Entry == nil {
			return
		}
		id, stage = p.E.Entry.ID, trace.StageWANEntry
	default:
		return
	}
	c.Trace.Record(trace.Span{
		Entry: id, Stage: stage, Node: s.To,
		Start: s.Enqueue, End: s.Arrive,
		Bytes: int64(s.Size), Wait: s.QueueWait, Backlog: s.Backlog,
	})
}

// ScheduleGroupCrash kills every node of group g at virtual time `at`
// (§VI-E "Group Failures").
func (c *Cluster) ScheduleGroupCrash(at time.Duration, g int) {
	c.Net.Schedule(at, func() { c.Net.CrashGroup(g) })
}

// ScheduleNodeCrash kills one node at virtual time `at`.
func (c *Cluster) ScheduleNodeCrash(at time.Duration, id keys.NodeID) {
	c.Net.Schedule(at, func() { c.Net.Crash(id) })
}

// Rejoiner is implemented by nodes that support checkpointed rejoin: after
// the network marks the node live again, Rejoin() starts its state-transfer
// catch-up instead of resuming with stale in-memory state.
type Rejoiner interface{ Rejoin() }

// ScheduleNodeRecover revives one node at virtual time `at`. If the node
// implements Rejoiner it immediately starts the checkpointed-rejoin protocol.
func (c *Cluster) ScheduleNodeRecover(at time.Duration, id keys.NodeID) {
	c.Net.Schedule(at, func() {
		c.Net.Recover(id)
		if r, ok := c.Nodes[id].(Rejoiner); ok {
			r.Rejoin()
		}
	})
}

// ScheduleReconfigure delivers an administrative membership trigger
// (ReconfigJoin / ReconfigLeave for group g) to every live node at virtual
// time `at`. The trigger is unauthenticated intent — each correct group
// turns it into a certified vote, and only the certified quorum changes the
// member set — so delivering it out-of-band is faithful to how an operator
// console would broadcast it.
func (c *Cluster) ScheduleReconfigure(at time.Duration, op byte, g int) {
	c.Net.Schedule(at, func() {
		admin := keys.NodeID{Group: -1, Index: -1}
		for gi, n := range c.Cfg.GroupSizes {
			for j := 0; j < n; j++ {
				id := keys.NodeID{Group: gi, Index: j}
				if sn := c.Net.Node(id); sn == nil || sn.Crashed() {
					continue
				}
				c.Nodes[id].HandleMessage(transport.Message{
					From:    admin,
					Payload: &ReconfigureMsg{Op: op, Group: g},
				})
			}
		}
	})
}

// SchedulePartition severs the WAN link between groups a and b at virtual
// time `at` and heals it at `healAt` (no heal when healAt <= at).
func (c *Cluster) SchedulePartition(at, healAt time.Duration, a, b int) {
	c.Net.SchedulePartition(at, healAt, a, b)
}

// ScheduleByzantine makes followers 1..perGroup of every group Byzantine
// from virtual time `at`, 0 included (§VI-E "Node Failures"): each becomes a
// simnet.ByzantineSender that rewrites every chunk batch it sends — its
// Algorithm-1 share, a LAN forward, a repair reply — into the same indexes
// of its entry's Tamper encoding, under the honest certificate. Leaders
// (index 0) stay correct so local consensus continues; the paper's
// Byzantine nodes likewise "always strictly follow the local consensus
// process".
func (c *Cluster) ScheduleByzantine(at time.Duration, perGroup int) {
	// One tamper encoding per receiver geometry of each entry in flight.
	ng := len(c.Cfg.GroupSizes)
	memo := fifo.NewMemo[tamperKey, *replication.Encoded](ng * ng * c.Cfg.PipelineDepth)
	t := &tamperer{decoded: c.DecodeMemo, memo: memo}
	c.Net.Schedule(at, func() {
		for g, n := range c.Cfg.GroupSizes {
			for j := 1; j <= perGroup && j < n; j++ {
				c.Net.SetByzantineSender(keys.NodeID{Group: g, Index: j},
					simnet.ByzantineSender{CorruptRate: 1, Corrupt: t.corrupt})
			}
		}
	})
}

// Tamper is the entry a §VI-E Byzantine node replicates in e's place, encoded:
// the same ID, its first transaction's payload prefixed with "tampered".
func Tamper(e *types.Entry) []byte {
	evil := *e
	evil.Txns = append([]types.Transaction(nil), e.Txns...)
	if len(evil.Txns) > 0 {
		t := evil.Txns[0]
		t.Payload = append([]byte("tampered"), t.Payload...)
		evil.Txns[0] = t
	}
	return evil.Encode()
}

// tamperKey names a tamper encoding: the entry, the digest its certificate
// carries and the geometry of the batch it replaces.
type tamperKey struct {
	id          types.EntryID
	digest      keys.Digest
	total, data int
}

// tamperer is the Corrupt of every ScheduleByzantine sender of a cluster: the
// tamper encodings are memoized once for all of them, and the payload of one
// broadcast leaves as one tampered copy (last), so these senders never
// equivocate.
type tamperer struct {
	decoded         *fifo.Memo[types.EntryID, Decoded]
	memo            *fifo.Memo[tamperKey, *replication.Encoded]
	lastIn, lastOut any
}

// corrupt returns the tampered copy of a ChunkBatch or BatchFwd payload, nil
// for any other payload or for an entry the decode memo does not hold.
func (t *tamperer) corrupt(payload any, _ uint64) any {
	if payload == t.lastIn {
		return t.lastOut
	}
	var out any
	switch m := payload.(type) {
	case *replication.ChunkBatch:
		if b := t.batch(m); b != nil {
			out = b
		}
	case *BatchFwd:
		if b := t.batch(m.B); b != nil {
			// A forward claims the honest entry's length, not the tamper
			// encoding's own.
			b.DataLen = m.B.DataLen
			out = &BatchFwd{B: b}
		}
	}
	t.lastIn, t.lastOut = payload, out
	return out
}

// batch is b's indexes of its entry's tamper encoding under b's certificate.
// The entry is the decode memo's, once its bytes hash to the certified
// digest; the geometry is b's own Total and Data, all of a plan that Encode
// and Batch read.
func (t *tamperer) batch(b *replication.ChunkBatch) *replication.ChunkBatch {
	k := tamperKey{id: b.Entry, digest: b.Cert.Digest, total: b.Total, data: b.Data}
	encd, ok := t.memo.Get(k)
	if !ok {
		d, ok := t.decoded.Get(b.Entry)
		if !ok || keys.Hash(d.Payload) != b.Cert.Digest {
			return nil
		}
		var err error
		encd, err = replication.Encode(Tamper(d.Entry), &plan.Plan{Total: b.Total, Data: b.Data, Parity: b.Total - b.Data})
		if err != nil {
			return nil
		}
		t.memo.Put(k, encd)
	}
	evil, err := encd.Batch(b.Indices, b.Entry, b.Cert)
	if err != nil {
		return nil
	}
	return &evil
}

// Run starts every node and processes events until Cfg.RunFor of virtual
// time, returning the metrics collector.
func (c *Cluster) Run() *metrics.Collector {
	c.RunUntil(c.Cfg.RunFor)
	return c.Metrics
}

// RunUntil advances the simulation to the given virtual time (starting nodes
// on first use); it can be called repeatedly with increasing times.
func (c *Cluster) RunUntil(t time.Duration) {
	if !c.started {
		c.started = true
		// Start in deterministic (group, index) order: timer creation order
		// is part of the event schedule, and runs must be reproducible.
		for g, n := range c.Cfg.GroupSizes {
			for j := 0; j < n; j++ {
				c.Nodes[keys.NodeID{Group: g, Index: j}].Start()
			}
		}
		if c.Cfg.Gateway.SimClients > 0 {
			c.StartClients(c.Cfg.Gateway.SimClients)
		}
	}
	c.Net.Run(t)
	// Surface the fault layer's totals as metrics counters so Summary()
	// shows them next to the protocol's recovery counters.
	m := &c.Metrics.Counts
	m.NetDropped, m.NetDuplicated, m.NetPartitionDropped = c.Net.FaultStats()
	m.NetCorrupted, m.NetEquivocated = c.Net.ByzantineStats()
}

// Drain stops client load and advances the simulation by d: leaders switch
// to empty heartbeat entries so the clocks keep moving and every in-flight
// entry executes on every live node. Use before comparing state hashes.
func (c *Cluster) Drain(d time.Duration) {
	c.Cfg.Draining = true
	c.RunUntil(c.Net.Now() + d)
}

// WANBytesPerEntry returns average WAN bytes consumed per executed entry —
// the Fig 10 metric.
func (c *Cluster) WANBytesPerEntry() float64 {
	entries := c.Metrics.Entries()
	if entries == 0 {
		return 0
	}
	return float64(c.Net.WANBytes(-1)) / float64(entries)
}

// StateHash returns the state digest of the given node, for cross-node
// consistency assertions in tests.
func (c *Cluster) StateHash(id keys.NodeID) [32]byte {
	type engined interface{ DB() *statedb.Store }
	n := c.Nodes[id]
	if en, ok := n.(engined); ok {
		return en.DB().Hash()
	}
	var zero [32]byte
	return zero
}

// AgreementReport classifies end-of-run agreement across the cluster's
// ledgers (forensics.Classify): Converged, Wedged (identical prefixes, a
// live node behind — liveness gap), or Forked (different blocks at the same
// height — safety violation). Crashed nodes and nodes in groups listed in
// deadGroups (e.g. a group whose death was certified by failover, or one
// administratively removed — its survivors halt deliberately and would
// otherwise read as laggards forever) are censused but never judged.
// Detection outcomes land in the metrics counters "forked-detected",
// "wedged-detected", and "agreement-first-div-height", so any harness that
// surfaces counters surfaces the verdict too.
func (c *Cluster) AgreementReport(deadGroups map[int]bool) forensics.Report {
	type ledgered interface{ Ledger() *ledger.Ledger }
	var nls []forensics.NodeLedger
	for g, size := range c.Cfg.GroupSizes {
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			ln, ok := c.Nodes[id].(ledgered)
			if !ok {
				continue
			}
			sn := c.Net.Node(id)
			live := sn != nil && !sn.Crashed() && !deadGroups[g]
			nls = append(nls, forensics.NodeLedger{
				ID: id, Ledger: ln.Ledger(), State: c.StateHash(id), Live: live,
			})
		}
	}
	rep := forensics.Classify(nls)
	forensics.Count(&c.Metrics.Counts, rep.Verdict, rep.FirstDivergentHeight)
	return rep
}

// EntryIDFor is a convenience for tests.
func EntryIDFor(g int, seq uint64) types.EntryID { return types.EntryID{GID: g, Seq: seq} }
