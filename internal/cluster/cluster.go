package cluster

import (
	"math/rand"
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

// NodeCtx is everything a protocol node needs from its environment.
type NodeCtx struct {
	ID  keys.NodeID
	KP  *keys.KeyPair
	Cfg *Config
	Reg *keys.Registry
	// Net is this node's handle on the message fabric: the emulator in
	// simulated clusters (Cluster wires transport.SimNetwork), the TCP
	// backend in real multi-process deployments (massbft.StartNode).
	Net transport.Endpoint
	// Gen is the group-shared transaction generator (only the current group
	// leader pulls from it).
	Gen workload.Workload
	// Engine executes ordered entries against this node's own state copy,
	// whose values it shares with the process's other stores (Engine.Values).
	Engine *aria.Engine
	// Metrics is the shared collector; only the observer node records
	// throughput/latency into it (all correct nodes execute identically).
	Metrics    *metrics.Collector
	IsObserver bool
	// EncodeMemo and RebuildMemo are the process's memos of the deterministic
	// erasure transforms of entries in flight (CPU is charged per node
	// regardless).
	EncodeMemo  *replication.EncodeMemo
	RebuildMemo *replication.RebuildMemo
	Faults      *FaultPlan
	// Trace is the cluster-wide span recorder; nil when tracing is off (all
	// recorder methods are nil-safe no-ops, so nodes record unconditionally).
	Trace *trace.Recorder
	// Gateway is this node's client front end; nil unless Cfg.Gateway.Enabled.
	// The proposer pulls batches from it and the execution path reports
	// executed client transactions back into its dedup window.
	Gateway *gateway.Gateway
	// ReplyOut routes one signed ClientReply toward its client. The
	// environment sets it (the sim ClientHub, or a TCP gateway server); nil
	// drops replies (direct-injection workloads produce none).
	ReplyOut func(*ClientReply)
}

// NewMemos returns the memos the nodes of one process share: the erasure
// memos, each holding one value per entry the leaders may have unexecuted —
// PipelineDepth per group — and the value memo, one value per transaction of
// those entries. So the bounds grow with the cluster: a fixed one sized for
// three groups decoded each bucket seven times over at fifty (DESIGN §8).
// Each grows to its bound as it fills, so a process that writes little pays
// little.
func NewMemos(cfg *Config) (*replication.EncodeMemo, *replication.RebuildMemo, *aria.ValueMemo) {
	inFlight := len(cfg.GroupSizes) * cfg.PipelineDepth
	return replication.NewEncodeMemo(inFlight), replication.NewRebuildMemo(inFlight),
		aria.NewValueMemo(inFlight * cfg.MaxBatch)
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
	// (GenerateClients(Gateway.Clients, Seed)); nil unless Gateway.Enabled.
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
	if cfg.Gateway.Enabled {
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

// Cluster is a fully wired experiment.
type Cluster struct {
	Cfg Config
	// Net is the underlying emulator (fault scheduling, traffic accounting);
	// Transport is the seam the nodes are actually wired through.
	Net       *simnet.Network
	Transport transport.Network
	// Reg and Pairs, and ClientKeys and ClientReg under Cfg.Gateway.Enabled.
	*Identities
	Nodes   map[keys.NodeID]Node
	Metrics *metrics.Collector
	Faults  *FaultPlan
	// Trace is the span recorder shared with every node; nil unless
	// Cfg.TraceEnabled.
	Trace *trace.Recorder

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
	var latFn func(a, b int) simnet.Time
	if lat := cfg.WANLatency; lat != nil {
		latFn = func(a, b int) simnet.Time { return lat(a, b) }
	}
	nw := simnet.New(simnet.Config{
		GroupSizes:     cfg.GroupSizes,
		WANLatency:     latFn,
		Topology:       cfg.Topology,
		LANLatency:     cfg.LANLatency,
		WANBandwidth:   cfg.WANBandwidth,
		LANBandwidth:   cfg.LANBandwidth,
		Seed:           cfg.Seed,
		GST:            cfg.GST,
		UnstableFactor: cfg.UnstableFactor,
	})
	if cfg.WANDropRate > 0 || cfg.WANDupRate > 0 || cfg.LANDropRate > 0 || cfg.FaultJitter > 0 {
		nw.SetFaults(simnet.FaultConfig{
			WANDrop: cfg.WANDropRate,
			WANDup:  cfg.WANDupRate,
			LANDrop: cfg.LANDropRate,
			Jitter:  cfg.FaultJitter,
		})
	}
	col := metrics.NewCollector()
	col.SetWindow(cfg.Warmup, cfg.RunFor-cfg.Warmup/2)

	c := &Cluster{
		Cfg:        cfg,
		Net:        nw,
		Transport:  transport.NewSimNetwork(nw),
		Identities: ids,
		Nodes:      make(map[keys.NodeID]Node),
		Metrics:    col,
		Faults:     &FaultPlan{ByzantineNodes: make(map[keys.NodeID]bool)},
	}
	encodeMemo, rebuildMemo, values := NewMemos(&cfg)
	if cfg.TraceEnabled {
		c.Trace = trace.NewRecorder()
		nw.SetSendProbe(c.sendProbe)
	}

	for g, n := range cfg.GroupSizes {
		gen, err := cfg.GroupWorkload(g)
		if err != nil {
			return nil, err
		}
		exec := gen.Executor()
		for j := 0; j < n; j++ {
			id := keys.NodeID{Group: g, Index: j}
			db := statedb.New()
			gen.Load(db)
			engine := aria.NewEngine(db, exec)
			engine.Values = values
			ctx := &NodeCtx{
				ID:          id,
				KP:          ids.Pairs[g][j],
				Cfg:         &c.Cfg,
				Reg:         ids.Reg,
				Net:         c.Transport.Endpoint(id),
				Gen:         gen,
				Engine:      engine,
				Metrics:     col,
				IsObserver:  id == cfg.Observer,
				EncodeMemo:  encodeMemo,
				RebuildMemo: rebuildMemo,
				Faults:      c.Faults,
				Trace:       c.Trace,
			}
			if cfg.Gateway.Enabled {
				AttachGateway(ctx, c.ClientReg)
				ctx.ReplyOut = c.routeReply
			}
			node := factory(ctx)
			c.Nodes[id] = node
			c.Transport.SetHandler(id, node)
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
// other recipient of the broadcast.
func corruptMetaBatch(payload any, rng *rand.Rand) any {
	b, ok := payload.(*MetaBatch)
	if !ok || len(b.Records) == 0 {
		return nil
	}
	cp := *b
	cp.Records = append([]Record(nil), b.Records...)
	i := rng.Intn(len(cp.Records))
	cp.Records[i].TS += 1 + uint64(rng.Intn(7))
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
		if c.Cfg.Gateway.Enabled && c.Cfg.Gateway.SimClients > 0 {
			c.StartClients(c.Cfg.Gateway.SimClients)
		}
	}
	c.Net.Run(t)
	// Surface the fault layer's totals as metrics counters so Summary()
	// shows them next to the protocol's recovery counters.
	if dropped, dup, pd := c.Net.FaultStats(); dropped+dup+pd > 0 {
		c.Metrics.Set("net-dropped", dropped)
		c.Metrics.Set("net-duplicated", dup)
		c.Metrics.Set("net-partition-dropped", pd)
	}
	if corrupted, equiv := c.Net.ByzantineStats(); corrupted+equiv > 0 {
		c.Metrics.Set("net-corrupted", corrupted)
		c.Metrics.Set("net-equivocated", equiv)
	}
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
	switch rep.Verdict {
	case forensics.Forked:
		c.Metrics.Inc("forked-detected")
		c.Metrics.Set("agreement-first-div-height", int64(rep.FirstDivergentHeight))
	case forensics.Wedged:
		c.Metrics.Inc("wedged-detected")
		c.Metrics.Set("agreement-first-div-height", int64(rep.FirstDivergentHeight))
	}
	return rep
}

// EntryIDFor is a convenience for tests.
func EntryIDFor(g int, seq uint64) types.EntryID { return types.EntryID{GID: g, Seq: seq} }
