package cluster

import (
	"time"

	"massbft/internal/aria"
	"massbft/internal/forensics"
	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/metrics"
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

// FaultPlan is the cluster-wide fault schedule, shared by reference with
// every node (the simulation is single-threaded).
type FaultPlan struct {
	// ByzantineFrom, when non-zero, activates the Byzantine nodes at that
	// virtual time (§VI-E "Node Failures").
	ByzantineFrom time.Duration
	// ByzantineNodes marks which nodes behave Byzantine once active.
	ByzantineNodes map[keys.NodeID]bool
}

// IsByzantine reports whether id is actively Byzantine at virtual time now.
func (f *FaultPlan) IsByzantine(id keys.NodeID, now time.Duration) bool {
	if f == nil || f.ByzantineFrom == 0 || now < f.ByzantineFrom {
		return false
	}
	return f.ByzantineNodes[id]
}

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
	Faults  *FaultPlan
	// Trace is the span recorder; nil when tracing is off (all recorder
	// methods are nil-safe no-ops, so nodes record unconditionally).
	Trace *trace.Recorder
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
	values      *aria.ValueMemo
	index       *statedb.Index
}

// NewProcess returns a process's shared parts: an empty fault plan, a fresh
// key index and fresh memos.
func NewProcess(cfg Config, ids *Identities, col *metrics.Collector) *Process {
	inFlight := len(cfg.GroupSizes) * cfg.PipelineDepth
	return &Process{
		Cfg: cfg, Identities: ids, Metrics: col,
		Faults:      &FaultPlan{ByzantineNodes: make(map[keys.NodeID]bool)},
		EncodeMemo:  replication.NewEncodeMemo(inFlight),
		RebuildMemo: replication.NewRebuildMemo(2 * inFlight),
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

// ScheduleByzantineSender makes one node corrupt a fraction of its outgoing
// MetaBatch messages in flight from virtual time `at`: a deep-copied batch
// with one record's timestamp perturbed, so the receiver's certificate check
// must reject it (the cert binds the records' canonical encoding). Because
// the corruption samples per copy of a broadcast, the same batch also leaves
// the sender in differing versions for different peers — wire-level
// equivocation. Counters: simnet's ByzantineStats plus the receivers'
// batch-cert-rejected.
func (c *Cluster) ScheduleByzantineSender(at time.Duration, id keys.NodeID, rate float64) {
	c.Net.Schedule(at, func() {
		c.Net.SetByzantineSender(id, simnet.ByzantineSender{
			CorruptRate: rate,
			Corrupt:     corruptMetaBatch,
		})
	})
}

// corruptMetaBatch returns a tampered copy of a MetaBatch payload (nil for
// other payload types, leaving them untouched). The records slice is copied
// before one timestamp is perturbed — the original is shared with every
// other recipient of the broadcast. The draw picks the record (its low half)
// and the bump of 1 to 7 (its high half).
func corruptMetaBatch(payload any, draw uint64) any {
	b, ok := payload.(*MetaBatch)
	if !ok || len(b.Records) == 0 {
		return nil
	}
	cp := *b
	cp.Records = append([]Record(nil), b.Records...)
	i := uint32(draw) % uint32(len(cp.Records))
	cp.Records[i].TS += 1 + (draw>>32)%7
	return &cp
}

// ScheduleByzantine makes the first `perGroup` follower nodes of every group
// Byzantine from virtual time `at`: they replicate a tampered entry instead
// of the correct one (§VI-E "Node Failures"). Leaders (index 0) stay correct
// so local consensus continues; the paper's Byzantine nodes likewise "always
// strictly follow the local consensus process".
func (c *Cluster) ScheduleByzantine(at time.Duration, perGroup int) {
	c.Faults.ByzantineFrom = at
	for g, n := range c.Cfg.GroupSizes {
		for j := 1; j <= perGroup && j < n; j++ {
			c.Faults.ByzantineNodes[keys.NodeID{Group: g, Index: j}] = true
		}
	}
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
