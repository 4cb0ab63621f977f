// Package core implements the MassBFT protocol node — the paper's primary
// contribution — together with the competitor protocols of the evaluation,
// which its §VI "same codebase" methodology derives by switching the node's
// replication and ordering modes (see cluster.Options and the Preset*
// functions):
//
//   - MassBFT  = encoded bijective replication + asynchronous VTS ordering
//   - EBR      = encoded bijective replication + round ordering (Fig 12)
//   - BR       = plain bijective replication  + round ordering (Fig 12)
//   - Baseline = one-way leader replication   + round ordering + global Raft
//   - GeoBFT   = one-way leader replication   + round ordering, no global
//     consensus (direct broadcast)
//   - Steward  = Baseline + one proposal in flight globally
//   - ISS      = Baseline + epoch barriers
//
// Each node runs two PBFT instances over its group: the *local* instance
// certifies proposed entries (three-phase), and the *meta* instance
// (skip-prepare, §II-A) certifies the group's outgoing records — timestamp
// assignments, accepts, and commits — before they are broadcast to other
// groups.
package core

import (
	"fmt"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/order"
	"massbft/internal/pbft"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/statedb"
	"massbft/internal/transport"
	"massbft/internal/types"
)

// NewNode is New as a cluster.Factory.
func NewNode(ctx *cluster.NodeCtx) cluster.Node {
	return New(ctx)
}

type entrySt struct {
	entry *types.Entry
	// enc is the encoding cert certifies, set with entry at every install
	// from bytes the node already holds; it is what execution archives.
	enc       []byte
	cert      *keys.Certificate
	content   bool
	contentAt time.Duration
	committed bool
	executed  bool
	// stamps tracks which groups have stamped/accepted this entry (only
	// used for entries proposed by this node's own group).
	stamps map[int]bool
	// tsSent marks that this node's group already emitted its timestamp or
	// accept for the entry.
	tsSent bool
	// commitSeen marks that a majority of groups hold the entry.
	commitSeen bool
	// windowFreed marks that this (own-group) entry released its proposer
	// pipeline slot.
	windowFreed bool
	// firstStampAt is when the first foreign stamp arrived without local
	// content (drives the Lemma V.1 fetch path); stampedBy is a group known
	// to hold the entry.
	firstStampAt time.Duration
	stampedBy    int
	// firstChunkAt is when the first chunk arrived (chunk-repair evidence).
	firstChunkAt time.Duration
	// stampedStreams records which group clocks have stamped this entry.
	stampedStreams map[int]bool
	// The retry clocks of the four per-entry recovery tasks (recovery.go).
	fetch, repair, restamp, rebroadcast retry
}

// streamSt is this node's view of one origin group's certified record
// stream — one row per group, our own included (DESIGN.md §6, "The origin
// row"). Our own row's cursor stays at zero: own batches arrive through
// onMetaCommit, never onMetaBatch.
type streamSt struct {
	// next is the next-expected MetaBatch seq; buffered holds the batches that
	// arrived past it.
	next     uint64
	buffered map[uint64]*cluster.MetaBatch
	// gapSince is when the cursor first stalled at gapAt with later batches
	// buffered behind it (zero: no gap); repair is the NACK's retry clock.
	gapSince time.Duration
	gapAt    uint64
	repair   retry
	// log retains recently seen certified batches for serving stream-gap
	// NACKs, bounded to partitionHorizon seqs.
	log map[uint64]*cluster.MetaBatch
	// view is the view fence: the highest Record.View processed on the
	// stream. Records from older meta views are dropped — a re-emitted record
	// (restampTask after a view change) supersedes any surviving in-flight
	// copy from the deposed leader, and every node drops the stale copy
	// identically because streams are FIFO.
	view uint64
	// ts is the highest value stamped on this group's clock, by any origin:
	// the value a takeover freezes.
	ts uint64
	// heard is the stream's last liveness evidence: a valid batch arrived,
	// even out of order (a lossy-but-alive stream is repaired, not suspected),
	// or its records were processed.
	heard time.Duration
	// bulkAt is when a chunk of this group's entries last arrived: the
	// receiver-side progress evidence of the progress gate (retry.go).
	bulkAt time.Duration
	// commitHi is the highest own-entry commit seq processed from the stream.
	// Our own row's bounds a coordinator's join boundary (membership.go); a
	// foreign row's only rides in the checkpoint fold and restore.
	commitHi uint64
	// executed is the highest executed seq of the group's entries: late
	// records for entries at or below it are dropped, not resurrected.
	executed uint64
	// takeoverSent marks the stamps this node emitted on the absent group's
	// behalf; entries are dropped at execution and the set at a join.
	takeoverSent map[types.EntryID]bool
}

// newStream returns an origin row that has seen nothing.
func newStream() streamSt {
	return streamSt{
		buffered:     make(map[uint64]*cluster.MetaBatch),
		log:          make(map[uint64]*cluster.MetaBatch),
		takeoverSent: make(map[types.EntryID]bool),
	}
}

// setGap records that the cursor stalled at since (zero clears the gap) and
// restarts the NACK clock.
func (s *streamSt) setGap(since time.Duration) {
	s.gapSince, s.gapAt = since, s.next
	s.repair.reset()
}

// Node is one protocol participant (exported only through cluster.Node).
type Node struct {
	ctx  *cluster.NodeCtx
	cfg  *cluster.Config
	opts cluster.Options
	id   keys.NodeID
	g    int
	ng   int

	members []keys.NodeID
	local   *pbft.Instance
	meta    *pbft.Instance

	orderer   *order.Orderer
	rounds    *order.RoundOrderer
	collector *replication.Collector
	ledger    *ledger.Ledger
	// stateRoll is a rolling execution digest folded into each block; it
	// certifies the executed prefix at O(1) per entry (the full state digest
	// is only computed in tests).
	stateRoll [32]byte

	entries map[types.EntryID]*entrySt

	// Proposer state.
	inFlight      int
	backlog       float64
	lastTick      time.Duration
	lastProposeAt time.Duration
	// The gateway cut's one armed deadline (armCut): its time, and the
	// generation that retires a timer an earlier deadline replaced.
	cutArmed bool
	cutAt    time.Duration
	cutGen   uint64
	// lastLocalProgress / lastMetaProgress timestamp the most recent
	// delivery on each instance (leader-silence detection).
	lastLocalProgress time.Duration
	lastMetaProgress  time.Duration
	// localStall / metaStall watch each PBFT instance's delivery cursor for
	// the certified slot catch-up path (slotRepairScan).
	localStall pbftWatch
	metaStall  pbftWatch

	// Own-group clock (§V-A): highest own seq with majority stamps,
	// contiguous.
	clk uint64

	// Outgoing records awaiting meta certification (leader only).
	pendingRecs []cluster.Record
	// hiQueuedTS is the highest own-stream stamp this node has queued as meta
	// leader; stampTS clamps against it so the stream never steps backward.
	hiQueuedTS uint64

	// proposed holds this node's own local proposals by slot until the slot
	// delivers (settleProposal).
	proposed map[uint64]*proposalSt

	// Tracing bookkeeping (filled only when ctx.Trace is enabled; purely
	// passive). tracePhase holds the previous local-PBFT phase timestamp per
	// own proposed entry; traceFirstChunk the first-chunk arrival time per
	// foreign entry (kept separate from entrySt so tracing never changes
	// entry-state lifetimes).
	tracePhase      map[types.EntryID]time.Duration
	traceFirstChunk map[types.EntryID]time.Duration

	// streams is this node's view of every origin's record stream, one row
	// per group.
	streams []streamSt
	// lastOwnStream is the last time our own group's stream visibly extended
	// (a certified own batch, or a queued keepalive awaiting certification);
	// the keepalive scan emits a RecKeepalive when it idles too long.
	lastOwnStream time.Duration
	// lastForeignStamp is the last time a foreign group's stamp landed on one
	// of our own entries: the sender-side progress evidence of the progress
	// gate (retry.go).
	lastForeignStamp time.Duration

	// groups is this node's certified view of every group, one row each,
	// with the epoch and the standing votes (groups.go; DESIGN.md §6). Only
	// its step and restore change it.
	groups groupTable

	// Node-local membership state (membership.go, DESIGN.md §11).
	// ownCommitHi is the highest own-entry commit seq queued, certified or
	// not (our own row's commitHi counts the certified ones): the
	// coordinator's join-boundary source. wantJoin / wantLeave are
	// node-local admin intents awaiting this group's certified vote.
	// selfStandby keeps a cold standby node deaf; leaving halts this group's
	// stream right after its farewell record; epochEmitted dedups the
	// coordinator leader's RecEpoch emission per epoch number.
	ownCommitHi   uint64
	wantJoin      map[int]bool
	wantLeave     map[int]bool
	selfStandby   bool
	joinTriggered bool
	leaving       bool
	epochEmitted  uint64

	// Byzantine defence: the suppliers of a bucket whose rebuild failed (§VI-E).
	blacklist map[keys.NodeID]bool
	// chunkFrom remembers which transport peer supplied each chunk.
	chunkFrom map[types.EntryID]map[int]keys.NodeID

	// execCount counts executed entries (epoch gate); commitCount counts
	// globally committed entries (Serial gate).
	execCount   int
	commitCount int

	// archive retains recently executed entries (certified bytes +
	// certificate) so this node can still serve Lemma V.1 fetches and
	// chunk-repair NACKs after execution garbage-collects the live entry
	// state. Bounded to partitionHorizon sequence numbers per group.
	archive map[types.EntryID]*archived

	// plans memoizes the Algorithm-1 plan per (sender size, receiver size),
	// filled on first use: group sizes never change at run time (standby
	// groups are provisioned).
	plans map[[2]int]*plan.Plan

	// Checkpointed rejoin state. tickGen invalidates periodic timers across a
	// rejoin (timers that fire while a node is crashed are discarded by the
	// emulator, so Rejoin re-arms them all under a new generation). rejoining
	// gates message handling to the state-transfer exchange; consensus
	// traffic that arrives meanwhile is buffered and replayed after install.
	// transfer is the exchange's retry clock (sendTransferReq).
	tickGen   uint64
	rejoining bool
	transfer  retry
	rejoinBuf []transport.Message
}

// archived is the post-execution remnant of an entry kept for recovery
// serving: the bytes it was certified in, never a decoded copy.
type archived struct {
	enc  []byte
	cert *keys.Certificate
}

// New constructs a protocol node wired to ctx.
func New(ctx *cluster.NodeCtx) *Node {
	n := &Node{
		ctx:       ctx,
		cfg:       &ctx.Cfg,
		opts:      ctx.Cfg.Opts,
		id:        ctx.ID,
		g:         ctx.ID.Group,
		ng:        len(ctx.Cfg.GroupSizes),
		entries:   make(map[types.EntryID]*entrySt),
		proposed:  make(map[uint64]*proposalSt),
		streams:   make([]streamSt, len(ctx.Cfg.GroupSizes)),
		blacklist: make(map[keys.NodeID]bool),
		chunkFrom: make(map[types.EntryID]map[int]keys.NodeID),
		archive:   make(map[types.EntryID]*archived),
		ledger:    ledger.New(),
		wantJoin:  make(map[int]bool),
		wantLeave: make(map[int]bool),

		tracePhase:      make(map[types.EntryID]time.Duration),
		traceFirstChunk: make(map[types.EntryID]time.Duration),
	}
	for g := range n.streams {
		n.streams[g] = newStream()
	}
	// A standby group is provisioned (keys, endpoints, stream slot) but
	// absent until a certified RecEpoch join.
	n.groups = newGroupTable(n.g, n.ng, n.cfg.StandbyAtGenesis)
	n.selfStandby = n.groups.rows[n.g].State == standby
	for j := 0; j < ctx.Cfg.GroupSizes[n.g]; j++ {
		n.members = append(n.members, keys.NodeID{Group: n.g, Index: j})
	}
	n.local = pbft.New(pbft.Config{
		Self:     ctx.KP,
		Members:  n.members,
		Registry: ctx.Reg,
		Send: func(to keys.NodeID, m pbft.Msg) {
			env := &cluster.LocalMsg{M: m}
			ctx.Net.Send(to, env, env.WireSize())
		},
		Deliver:  n.onLocalCommit,
		Validate: n.validateProposal,
		// A slot no view-change vote reports prepared certifies as the empty
		// entry at its stream position: the stream keeps no hole.
		Filler: func(slot uint64) []byte {
			return (&types.Entry{ID: types.EntryID{GID: n.g, Seq: slot + 1}}).Encode()
		},
		After:             ctx.Net.After,
		ViewChangeTimeout: ctx.Cfg.ViewChangeTimeout,
		Observe:           n.observeLocal,
	})
	n.meta = pbft.New(pbft.Config{
		Self:        ctx.KP,
		Members:     n.members,
		Registry:    ctx.Reg,
		SkipPrepare: true,
		Send: func(to keys.NodeID, m pbft.Msg) {
			env := &cluster.MetaMsg{M: m}
			ctx.Net.Send(to, env, env.WireSize())
		},
		Deliver:           n.onMetaCommit,
		Filler:            func(uint64) []byte { return cluster.EncodeRecords(nil) },
		After:             ctx.Net.After,
		ViewChangeTimeout: ctx.Cfg.ViewChangeTimeout,
		Observe:           n.observeMeta,
	})
	if n.opts.Ordering == cluster.OrderAsync {
		n.orderer = order.NewOrderer(n.ng, n.execute)
	} else {
		n.rounds = order.NewRoundOrderer(n.ng, n.execute)
	}
	n.newCollector()
	return n
}

// newCollector starts the chunk collector afresh (encoded replication only).
func (n *Node) newCollector() {
	if n.opts.Replication != cluster.ReplEncoded {
		return
	}
	n.collector = replication.NewCollector(n.ctx.Reg, n.recvPlan, n.onRebuilt)
	n.collector.SetMemo(n.ctx.RebuildMemo)
	n.collector.SetOnFailure(n.onRebuildFailure)
	n.collector.SetCounts(&n.ctx.Metrics.Counts)
}

// DB exposes the node's state store for consistency checks.
func (n *Node) DB() *statedb.Store { return n.ctx.Engine.DB() }

// Ledger exposes the node's copy of the global hash-chained ledger.
func (n *Node) Ledger() *ledger.Ledger { return n.ledger }

// sendPlan returns the Algorithm-1 plan for sending from this node's group
// to group r.
func (n *Node) sendPlan(r int) *plan.Plan {
	p, err := n.groupPlan(n.cfg.GroupSizes[n.g], n.cfg.GroupSizes[r])
	if err != nil {
		panic(fmt.Sprintf("core: plan %d->%d: %v", n.g, r, err))
	}
	return p
}

// recvPlan returns the plan for entries arriving from sender group s.
func (n *Node) recvPlan(s int) *plan.Plan {
	if !n.inLayout(s) || s == n.g {
		return nil
	}
	p, _ := n.groupPlan(n.cfg.GroupSizes[s], n.cfg.GroupSizes[n.g])
	return p
}

// inLayout reports whether g names a group of the layout. Every payload that
// names a group or an entry is checked with it before any origin row is
// indexed: the wire carries a group as a u32 no one else has checked.
func (n *Node) inLayout(g int) bool { return g >= 0 && g < n.ng }

// groupPlan returns the memoized plan from a group of n1 nodes to one of n2.
func (n *Node) groupPlan(n1, n2 int) (*plan.Plan, error) {
	key := [2]int{n1, n2}
	if p, ok := n.plans[key]; ok {
		return p, nil
	}
	p, err := plan.New(n1, n2)
	if err != nil {
		return nil, err
	}
	if n.plans == nil {
		n.plans = make(map[[2]int]*plan.Plan)
	}
	n.plans[key] = p
	return p, nil
}

// Start implements cluster.Node.
func (n *Node) Start() {
	n.lastTick = n.ctx.Net.Now()
	n.armTicks()
}

// armTicks starts (or, after a rejoin, restarts) every periodic timer under
// a fresh tick generation. The emulator discards timers that fire while a
// node is crashed, so a recovering node's old tick loops are dead; bumping
// the generation also silences any old loop that survived a fast
// crash/recover cycle.
func (n *Node) armTicks() {
	n.tickGen++
	// Stagger each group's batch phase so the groups' chunk bursts do not
	// collide at receiver downlinks every tick (real deployments are never
	// phase-locked).
	phase := time.Duration(n.g) * n.cfg.BatchTimeout / time.Duration(n.ng)
	n.everyAfter(n.cfg.BatchTimeout+phase, n.cfg.BatchTimeout, n.batchTick)
	n.cutArmed = false // a deadline armed under the old generation is dead
	n.armCut(false)
	n.everyAfter(n.cfg.BatchTimeout/2, n.cfg.BatchTimeout/2, n.flushTick)
	if n.cfg.TakeoverTimeout > 0 {
		n.everyAfter(n.cfg.TakeoverTimeout, n.cfg.TakeoverTimeout/2, n.takeoverTick)
	}
	if n.cfg.ViewChangeTimeout > 0 {
		n.everyAfter(n.cfg.ViewChangeTimeout, n.cfg.ViewChangeTimeout, n.livenessTick)
	}
	// The receiver-side entry walk runs on the repair cadence when one is
	// configured, else on the takeover cadence (Lemma V.1 fetch only).
	cadence := n.cfg.RepairTimeout
	if cadence == 0 {
		cadence = n.cfg.TakeoverTimeout
	}
	if cadence > 0 {
		n.everyAfter(cadence, cadence/2, n.repairTick)
	}
}

// everyAfter runs fn after first, then every d, until the node's tick
// generation changes.
func (n *Node) everyAfter(first, d time.Duration, fn func()) {
	gen := n.tickGen
	var loop func()
	loop = func() {
		if n.tickGen != gen {
			return
		}
		if !n.rejoining {
			// Periodic work pauses during a state transfer; the loop keeps
			// ticking so it resumes the moment the install completes.
			fn()
		}
		n.ctx.Net.After(d, loop)
	}
	n.ctx.Net.After(first, loop)
}

// livenessTick lets followers suspect a leader that stopped driving the
// instances entirely (a crashed leader with nothing in flight leaves PBFT's
// own progress timers unarmed).
func (n *Node) livenessTick() {
	now := n.now()
	if now-n.lastLocalProgress > 3*n.cfg.ViewChangeTimeout && !n.local.IsLeader() {
		n.local.SuspectLeader()
	}
	if now-n.lastMetaProgress > 3*n.cfg.ViewChangeTimeout && !n.meta.IsLeader() {
		n.meta.SuspectLeader()
	}
}

// observeLocal hands the local instance's events to the sink. A view
// installed resets the proposer's pipeline count: the new leader proposes
// from the instance's next slot, and arms its gateway's cut deadline.
func (n *Node) observeLocal(ev pbft.Event, at uint64, payload []byte) {
	if ev == pbft.ViewInstalled {
		n.inFlight = 0
		n.lastLocalProgress = n.now()
		n.armCut(false) // a new leader takes over the queue's deadline
	}
	n.transition(cluster.Transition{Kind: cluster.TransLocalView + cluster.TransitionKind(ev), Group: n.g, Origin: n.g, At: at, Epoch: n.groups.epoch}, payload)
}

// observeMeta hands the meta instance's views to the sink and notes meta
// progress; its slot phases are not reported. Records the old leader died
// holding (queued but uncertified) are re-emitted by the new leader's
// restampTask after a patience window — the delay lets the old view's
// in-flight slots certify first, so the re-emission's clamped stamp value
// (stampTS) observes them and the group's stream stays monotonic.
// Re-emissions carry the new view in Record.View, fencing out any stale copy
// of the original still in flight (see processRecords).
func (n *Node) observeMeta(ev pbft.Event, view uint64, _ []byte) {
	if ev == pbft.ViewInstalled {
		n.lastMetaProgress = n.now()
		n.transition(cluster.Transition{Kind: cluster.TransMetaView, Group: n.g, Origin: n.g, At: view, Epoch: n.groups.epoch}, nil)
	}
}

// HandleMessage implements transport.Handler: the top-level demultiplexer.
func (n *Node) HandleMessage(msg transport.Message) {
	n.charge(n.cfg.Cost.MsgOverhead)
	if n.rejoining {
		// Only the state-transfer exchange proceeds during a rejoin;
		// certified consensus traffic is buffered and replayed after install
		// (bulk chunk traffic is simply dropped — the repair path re-acquires
		// whatever mattered).
		switch m := msg.Payload.(type) {
		case *cluster.RejoinResp:
			n.onRejoinResp(msg.From, m)
		case *cluster.MetaBatch, *cluster.LocalMsg, *cluster.MetaMsg, *cluster.ReconfigureMsg:
			if len(n.rejoinBuf) < rejoinBufMax {
				n.rejoinBuf = append(n.rejoinBuf, msg)
			}
		}
		return
	}
	if n.selfStandby {
		// A cold standby node holds no state and must not influence
		// consensus: it stays deaf until the admin join trigger starts its
		// checkpointed bootstrap (the transfer itself runs under the
		// rejoining branch above).
		if m, ok := msg.Payload.(*cluster.ReconfigureMsg); ok {
			n.onReconfigure(m)
		}
		return
	}
	switch m := msg.Payload.(type) {
	case *cluster.LocalMsg:
		if pp, ok := m.M.(*pbft.PrePrepare); ok {
			n.chargePrePrepare(pp)
		}
		n.local.Handle(msg.From, m.M)
	case *cluster.MetaMsg:
		n.meta.Handle(msg.From, m.M)
	case *replication.ChunkBatch:
		n.onChunkBatch(msg.From, m, true)
	case *cluster.BatchFwd:
		n.onChunkBatch(msg.From, m.B, false)
	case *cluster.EntryWAN:
		n.onEntryCopy(m.E, true)
	case *cluster.EntryFwd:
		n.onEntryCopy(m.E, false)
	case *cluster.MetaBatch:
		n.onMetaBatch(msg.From, m)
	case *cluster.EntryFetch:
		n.onEntryFetch(msg.From, m)
	case *cluster.ChunkRepairReq:
		n.onChunkRepairReq(msg.From, m)
	case *cluster.StreamFetch:
		n.onStreamFetch(msg.From, m)
	case *cluster.ClientRequest:
		n.onClientRequest(msg.From, m)
	case *cluster.ReconfigureMsg:
		n.onReconfigure(m)
	case *cluster.RejoinReq:
		n.onRejoinReq(msg.From, m)
	case *cluster.RejoinResp:
		// Stale transfer from a slower peer, already installed another; drop.
	}
}

func (n *Node) now() time.Duration { return n.ctx.Net.Now() }

func (n *Node) charge(d time.Duration) {
	if d > 0 {
		n.ctx.Net.Charge(d)
	}
}

// chargePrePrepare models the per-transaction signature verification the
// paper identifies as the dominant local-consensus cost (§VI-B).
func (n *Node) chargePrePrepare(pp *pbft.PrePrepare) {
	if len(pp.Payload) == 0 {
		return
	}
	_, txns, err := types.PeekEntry(pp.Payload)
	if err != nil {
		return
	}
	n.charge(time.Duration(txns) * n.cfg.Cost.SigVerifyPerTxn)
}

func (n *Node) st(id types.EntryID) *entrySt {
	s, ok := n.entries[id]
	if !ok {
		s = &entrySt{stamps: make(map[int]bool)}
		n.entries[id] = s
	}
	return s
}

// broadcastLocal sends a message to every other member of this group (LAN).
func (n *Node) broadcastLocal(payload interface{ WireSize() int }) {
	for _, m := range n.members {
		if m != n.id {
			n.ctx.Net.Send(m, payload, payload.WireSize())
		}
	}
}

// broadcastLocalPriority is broadcastLocal on the control lane.
func (n *Node) broadcastLocalPriority(payload interface{ WireSize() int }) {
	for _, m := range n.members {
		if m != n.id {
			n.ctx.Net.SendPriority(m, payload, payload.WireSize())
		}
	}
}

// sendToReceivers sends a control message to the first f+1 members of every
// other group (WAN, priority lane) so that at least one correct, live node
// receives it promptly even when bulk chunk traffic saturates the links.
func (n *Node) sendToReceivers(payload interface{ WireSize() int }) {
	for g := 0; g < n.ng; g++ {
		if g == n.g {
			continue
		}
		copies := n.ctx.Reg.Faulty(g) + 1
		for j := 0; j < copies && j < n.cfg.GroupSizes[g]; j++ {
			n.ctx.Net.SendPriority(keys.NodeID{Group: g, Index: j}, payload, payload.WireSize())
		}
	}
}

// ExecutedSeqs returns the highest executed sequence number per group —
// per-group progress for tests and diagnostics.
func (n *Node) ExecutedSeqs() []uint64 {
	out := make([]uint64, n.ng)
	for g, row := range n.streams {
		out[g] = row.executed
	}
	return out
}
