package core

import (
	"sort"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/pbft"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/types"
)

// sortedEntryIDs returns the node's live entry IDs in (GID, Seq) order.
// Recovery paths iterate entries on timers; map order would make retry
// targets (and thus the whole event schedule) nondeterministic across runs.
func (n *Node) sortedEntryIDs() []types.EntryID {
	ids := make([]types.EntryID, 0, len(n.entries))
	for id := range n.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// The per-entry recovery table: each row is one path, applied to the tick's
// entry walk by runTask (retry.go). DESIGN.md §6 prints the same rows.
var (
	// chunkRepairTask NACKs the missing chunk indexes of entries whose chunk
	// buckets stalled below n_data past RepairTimeout (encoded replication
	// only): one rotating LAN peer (which may have rebuilt the entry from a
	// different chunk subset) and one rotating sender-group node per attempt.
	// Gate: chunks from this origin still arriving means the stalled buckets'
	// remainders are mostly queued behind them, not lost.
	chunkRepairTask = recoveryTask{
		counter:  "repair-reqs",
		on:       func(n *Node) bool { return n.collector != nil },
		clock:    func(st *entrySt) *retry { return &st.repair },
		armed:    (*Node).chunkRepairArmed,
		progress: func(n *Node, g int) time.Duration { return n.streams[g].bulkAt },
		fire:     (*Node).chunkRepairFire,
	}

	// fetchTask requests content for entries that some group stamped (so some
	// group provably holds them, Lemma V.1) but that never completed here.
	// Each attempt rotates the target group and node, so a crashed fetch
	// target or a lost reply only delays — never strands — the entry. Gate:
	// while chunks from the origin still arrive, the tail's missing copies are
	// in flight behind them; fetching would add duplicate full-entry replies.
	fetchTask = recoveryTask{
		counter:  "fetch-retries",
		clock:    func(st *entrySt) *retry { return &st.fetch },
		armed:    (*Node).fetchArmed,
		progress: func(n *Node, g int) time.Duration { return n.streams[g].bulkAt },
		fire:     (*Node).fetchFire,
	}

	// restampTask is the meta leader's record-loss safety net. A queued
	// record can miss certification entirely — a LAN drop stalls its PBFT
	// slot, the view change fills the slot with a no-op, and no later event
	// re-emits it. The ordering layer then wedges: a VTS head with one
	// permanently-inferred element can never prove precedence (Algorithm 2's
	// prec), and in round mode a lost accept or commit stalls the round
	// forever. The task re-queues the expected record for any entry still
	// lacking it after a patience window.
	//
	// Re-emission is safe: records certify on a single FIFO stream per group,
	// so if both an original and a re-emission certify, every node sees them
	// in the same order and the orderer's first-delivery-wins rule resolves
	// them identically everywhere. Across view changes the Record.View fence
	// (processRecords) additionally guarantees a deposed leader's surviving
	// copy cannot certify after a new leader's re-emission raised the
	// stream's view — the patience window here paces re-emission, it is not
	// load-bearing for correctness.
	restampTask = recoveryTask{
		counter: "record-retries",
		on:      func(n *Node) bool { return n.meta.IsLeader() },
		clock:   func(st *entrySt) *retry { return &st.restamp },
		armed:   (*Node).restampArmed,
		fire:    (*Node).restampFire,
	}

	// rebroadcastTask re-sends own-group entries whose replication copies
	// were swallowed by the WAN — the scenario the per-message loss paths
	// above cannot cure. Chunks are sent exactly once at local commit; under
	// probabilistic loss some copy always lands and the receiver-side NACKs
	// (chunk repair, Lemma V.1 fetch) recover the rest. A full partition is
	// different: every copy of every chunk dies in flight, no foreign node
	// ever learns the entry exists, so no receiver-side path can trigger.
	// Without a sender-side retry the group wedges permanently once its
	// pipeline fills — and, after the partition heals, its clock stream can
	// never revive, turning a healed partition into a certified group death.
	// The meta leader therefore re-sends a full entry copy (the §IV-A slow
	// path; correctness over bandwidth on a rare path) to every group whose
	// stamp is still missing after a patience window. Gate: foreign stamps
	// still landing on our entries prove the WAN paths are delivering — the
	// unstamped tail's chunks are in flight or curable by the receivers'
	// NACKs. A genuine partition (no stamps at all for a patience window)
	// gets the full sweep, which is what refills every receiver group
	// promptly after a heal.
	rebroadcastTask = recoveryTask{
		counter:  "entry-rebroadcasts",
		on:       func(n *Node) bool { return n.meta.IsLeader() },
		clock:    func(st *entrySt) *retry { return &st.rebroadcast },
		armed:    (*Node).rebroadcastArmed,
		progress: func(n *Node, _ int) time.Duration { return n.lastForeignStamp },
		fire:     (*Node).rebroadcastFire,
	}
)

// proposalSt retains an own proposal until its seq certifies locally, so the
// proposer can re-issue it if a view change destroys the slot.
type proposalSt struct {
	enc   []byte
	at    time.Duration
	retry retry
}

// proposalRepairScan re-proposes own entries whose seq never certified
// locally: a view change fills the old leader's in-flight slots with no-ops,
// and a lost seq wedges the group clock forever (advanceClock is contiguous).
// Re-proposal is idempotent — if the original slot certifies late, the
// duplicate delivery is dropped by onLocalCommit's content guard, identically
// on every replica. A follower proposer forwards the content to the current
// local leader instead.
func (n *Node) proposalRepairScan(now time.Duration) {
	if len(n.proposed) == 0 {
		return
	}
	patience := n.cfg.ViewChangeTimeout // the takeover tick implies TakeoverTimeout > 0
	if n.cfg.TakeoverTimeout > patience {
		patience = n.cfg.TakeoverTimeout
	}
	seqs := make([]uint64, 0, len(n.proposed))
	for s := range n.proposed {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		p := n.proposed[s]
		id := types.EntryID{GID: n.g, Seq: s}
		if s <= n.streams[n.g].executed {
			delete(n.proposed, s)
			continue
		}
		if st := n.entries[id]; st != nil && st.content {
			delete(n.proposed, s)
			continue
		}
		if !p.retry.ready(now, p.at, patience) {
			continue
		}
		p.retry.next(now, 2*patience)
		n.ctx.Metrics.Inc("proposal-retries")
		if n.local.IsLeader() {
			_ = n.local.Propose(p.enc)
			continue
		}
		leader := n.local.Leader(n.local.View())
		if leader == n.id {
			continue
		}
		fwd := &cluster.ProposalFwd{Payload: p.enc}
		n.ctx.Net.SendPriority(leader, fwd, fwd.WireSize())
	}
}

// onProposalFwd re-proposes a group member's view-change-destroyed entry if
// this node currently leads the local instance and the seq is still missing.
func (n *Node) onProposalFwd(from keys.NodeID, m *cluster.ProposalFwd) {
	if from.Group != n.g || from == n.id || !n.local.IsLeader() {
		return
	}
	e, _, err := types.PeekEntry(m.Payload)
	if err != nil || e.ID.GID != n.g || e.ID.Seq <= n.streams[n.g].executed {
		return
	}
	if st := n.entries[e.ID]; st != nil && st.content {
		return
	}
	_ = n.local.Propose(m.Payload)
}

// fetchArmed arms on the first foreign stamp without local content. The local
// leader retries first; followers hold back 3x longer so a healthy leader
// path does not trigger a group-wide fetch storm.
//
// Globally committed entries are the exception to the hold-back: the commit
// certifies that a majority of groups holds the content and the ordering
// pipeline is about to block on it, so a copy still missing at commit time
// is overdue, not merely slow — those fetch on the repair cadence, leaders
// and followers alike.
func (n *Node) fetchArmed(_ types.EntryID, st *entrySt) (since, patience, base time.Duration) {
	if st.content {
		return 0, 0, 0
	}
	if (st.committed || st.commitSeen) && n.cfg.RepairTimeout > 0 {
		return st.firstStampAt, n.cfg.RepairTimeout, n.cfg.RepairTimeout
	}
	patience = n.cfg.TakeoverTimeout
	if !n.local.IsLeader() {
		patience *= 3
	}
	return st.firstStampAt, patience, n.cfg.TakeoverTimeout
}

func (n *Node) fetchFire(now time.Duration, id types.EntryID, st *entrySt, base time.Duration) int {
	attempt := st.fetch.next(now, base)
	target, ok := n.remotePeer(n.fetchGroups(id, st), attempt)
	if !ok {
		return 0
	}
	req := &cluster.EntryFetch{Entry: id}
	n.ctx.Net.SendPriority(target, req, req.WireSize())
	if attempt == 0 {
		return 0 // a first fetch is not a retry
	}
	return 1
}

// fetchGroups lists the groups known (or presumed) to hold the entry, in
// fetch order: this node's own group first (a converged LAN peer serves in a
// LAN round trip over a link that is both faster and far more reliable than
// the WAN), then the stamping group, every group whose clock stream stamped
// it, and the entry's own origin group.
func (n *Node) fetchGroups(id types.EntryID, st *entrySt) []int {
	seen := map[int]bool{st.stampedBy: true, id.GID: true}
	for s := range st.stampedStreams {
		if n.inLayout(s) {
			seen[s] = true
		}
	}
	delete(seen, n.g)
	cands := make([]int, 1, len(seen)+1)
	cands[0] = n.g
	for g := range seen {
		cands = append(cands, g)
	}
	sort.Ints(cands[1:])
	return cands
}

// repairTick drives the receiver-side recovery paths: chunk-gap repair for
// stalled Collector buckets, stream-gap repair for stalled record-stream
// cursors, certified slot catch-up for stalled PBFT delivery cursors, and the
// Lemma V.1 entry fetch — here and not on the takeover tick because a
// committed entry's missing content must be curable faster than the coarse
// takeover period, or it loses the race against run/drain ends. With no
// repair cadence configured (armTicks) only the fetch is armed.
func (n *Node) repairTick() {
	now := n.now()
	ids := n.sortedEntryIDs()
	if n.cfg.RepairTimeout > 0 {
		n.runTask(&chunkRepairTask, ids, now)
		n.streamRepairScan(now)
		n.slotRepairScan(now)
	}
	n.runTask(&fetchTask, ids, now)
}

// pbftWatch tracks one PBFT instance's delivery cursor between repair ticks.
type pbftWatch struct {
	slot  uint64
	since time.Duration
}

// slotRepairScan triggers PBFT slot catch-up when a delivery cursor stalls
// while the instance has evidence of being behind (later in-flight slots, or
// higher-view traffic whose NewView this replica may have missed). Without
// it, a follower that lost votes for one slot never delivers anything again
// even though the rest of the group moved on.
func (n *Node) slotRepairScan(now time.Duration) {
	n.instanceRepair(n.local, &n.localStall, now)
	n.instanceRepair(n.meta, &n.metaStall, now)
}

func (n *Node) instanceRepair(in *pbft.Instance, w *pbftWatch, now time.Duration) {
	slot := in.NextDeliverSlot()
	if slot != w.slot || !in.Behind() {
		w.slot, w.since = slot, now
		return
	}
	if now-w.since < n.cfg.RepairTimeout {
		return
	}
	w.since = now // one request per stalled RepairTimeout window
	in.Catchup()
	n.ctx.Metrics.Inc("slot-catchups")
}

func (n *Node) chunkRepairArmed(id types.EntryID, st *entrySt) (since, patience, base time.Duration) {
	if st.content || id.GID == n.g || st.firstChunkAt == 0 {
		return 0, 0, 0
	}
	if _, missing, ok := n.collector.Missing(id); !ok || len(missing) == 0 {
		return 0, 0, 0
	}
	return st.firstChunkAt, n.cfg.RepairTimeout, n.cfg.RepairTimeout
}

func (n *Node) chunkRepairFire(now time.Duration, id types.EntryID, st *entrySt, base time.Duration) int {
	_, missing, _ := n.collector.Missing(id)
	req := &cluster.ChunkRepairReq{Entry: id, Missing: missing}
	return n.nack(req, st.repair.next(now, base), []int{id.GID})
}

// nack sends a repair request to one rotating LAN peer — it may hold (or have
// rebuilt) what we lost — and to one rotating member of the given groups, so
// a crashed or partitioned server is skipped on the next attempt. It returns
// how many requests went out.
func (n *Node) nack(req interface{ WireSize() int }, attempt int, groups []int) int {
	sent := 0
	if peer, ok := n.lanPeer(attempt); ok {
		n.ctx.Net.SendPriority(peer, req, req.WireSize())
		sent++
	}
	if peer, ok := n.remotePeer(groups, attempt); ok {
		n.ctx.Net.SendPriority(peer, req, req.WireSize())
		sent++
	}
	return sent
}

// streamRepairScan NACKs record-stream gaps older than RepairTimeout: the
// cursor is stalled with later batches buffered behind it, so an in-flight
// MetaBatch was lost (batches are broadcast once, unacknowledged). The
// retransmission from the cursor is requested with exponential backoff.
func (n *Node) streamRepairScan(now time.Duration) {
	for g := range n.streams {
		in := &n.streams[g]
		if g == n.g {
			continue // own batches arrive through onMetaCommit: no cursor, no gap
		}
		// Dead-cut catch-up: a certified death obliges every node to process
		// the dead group's full prefix [0, cut), but a node behind the cut with
		// nothing buffered has no ordinary gap trigger (gaps arm only when
		// later batches arrive — and the dead origin sends nothing). The cut
		// acts as a virtual later batch: arm the gap so the fetch below runs.
		if in.gapSince == 0 && n.groups.removed(g) && in.next < n.groups.rows[g].cut {
			in.setGap(now)
		}
		if in.gapSince == 0 || !in.repair.ready(now, in.gapSince, n.cfg.RepairTimeout) {
			continue
		}
		from := []int{g}
		if n.groups.absent(g) {
			// The origin is absent; rotate over live foreign groups instead —
			// every group logged the batches it relayed (the row's log), and the
			// quorum cursors prove the prefix exists somewhere live.
			var live []int
			for h := 0; h < n.ng; h++ {
				if h != n.g && h != g && !n.groups.absent(h) {
					live = append(live, h)
				}
			}
			if len(live) > 0 {
				from = live
			}
		}
		req := &cluster.StreamFetch{Origin: g, From: in.next}
		sent := n.nack(req, in.repair.next(now, n.cfg.RepairTimeout), from)
		n.ctx.Metrics.Add("stream-repair-reqs", int64(sent))
	}
}

// restampArmed arms once the entry has been known here (content or a foreign
// stamp) for a takeover window; re-emissions back off from twice that.
func (n *Node) restampArmed(_ types.EntryID, st *entrySt) (since, patience, base time.Duration) {
	since = st.contentAt
	if st.firstStampAt > since {
		since = st.firstStampAt
	}
	return since, n.cfg.TakeoverTimeout, 2 * n.cfg.TakeoverTimeout
}

func (n *Node) restampFire(now time.Duration, id types.EntryID, st *entrySt, base time.Duration) int {
	rec, ok := n.expectedRecord(id, st)
	if !ok || n.recordQueued(rec) {
		return 0
	}
	st.restamp.next(now, base)
	n.emitRecord(rec)
	return 1
}

// expectedRecord returns the record of this group that the entry should have
// seen certified by now and has not, if any.
func (n *Node) expectedRecord(id types.EntryID, st *entrySt) (cluster.Record, bool) {
	async := n.opts.Ordering == cluster.OrderAsync
	overlap := async && n.opts.OverlapVTS
	stamped := st.stampedStreams[n.g]
	switch {
	case id.GID == n.g && overlap:
		// Own entries: the self stamp's VALUE never needs recovery — its
		// assignment is preset deterministically (vts[g] = seq) on every
		// node. But in overlap mode the certified record itself doubles as
		// clock gossip: it is what raises other groups' inference bounds
		// for our stream. advanceClock emits it exactly once, at the
		// instant the clock walks past the entry, so if a meta view change
		// destroys that slot (or leadership moves mid-walk, with the new
		// leader's clock already advanced) the stream's visible clock pins
		// forever and every remote orderer head wedges on the stale bound.
		// Re-emission is exact — the assignment is TS == seq.
		if id.Seq <= n.clk && !stamped {
			return cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: id.Seq}, true
		}
	case id.GID == n.g:
		// Serial and round modes: local committed flips only when our own
		// commit record certifies in our own stream, so its absence past
		// patience means the record was lost (e.g. a meta view change
		// destroyed the slot); re-emit under backoff until it certifies.
		if (async || n.opts.GlobalConsensus) && st.commitSeen && !st.committed {
			return cluster.Record{Kind: cluster.RecCommit, Stream: n.g, Entry: id}, true
		}
	case overlap:
		// Our stamp doubles as our accept; until it certifies
		// (stampedStreams[n.g] via our own stream) the origin may be stuck
		// short of quorum and every orderer head short of our element.
		if !stamped && (st.content || len(st.stamps) >= n.groups.quorum()) {
			st.tsSent = true
			return cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: n.stampTS()}, true
		}
	case async || n.opts.GlobalConsensus:
		if st.content && !st.committed {
			return cluster.Record{Kind: cluster.RecAccept, Stream: n.g, Entry: id}, true
		}
		if async && st.committed && !stamped {
			st.tsSent = true
			return cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: n.stampTS()}, true
		}
	}
	return cluster.Record{}, false
}

// rebroadcastArmed arms on own entries that hold content but no stamp quorum
// two takeover windows after local certification.
func (n *Node) rebroadcastArmed(id types.EntryID, st *entrySt) (since, patience, base time.Duration) {
	if id.GID != n.g || !st.content || st.committed || st.commitSeen ||
		len(st.stamps) >= n.groups.quorum() {
		return 0, 0, 0
	}
	return st.contentAt, 2 * n.cfg.TakeoverTimeout, 4 * n.cfg.TakeoverTimeout
}

func (n *Node) rebroadcastFire(now time.Duration, _ types.EntryID, st *entrySt, base time.Duration) int {
	st.rebroadcast.next(now, base)
	msg := &cluster.EntryWAN{E: &replication.EntryMsg{Entry: st.entry, Cert: st.cert}}
	for r := 0; r < n.ng; r++ {
		if r == n.g || st.stamps[r] || n.groups.absent(r) {
			continue
		}
		copies := n.ctx.Reg.Faulty(r) + 1
		for j := 0; j < copies && j < n.cfg.GroupSizes[r]; j++ {
			n.ctx.Net.Send(keys.NodeID{Group: r, Index: j}, msg, msg.WireSize())
		}
	}
	return 1
}

// takeoverStampTask is the table row for absent stream s: the successor's
// meta leader assigns the group's frozen clock value to every live entry on
// its behalf (§V-C), once per entry (the origin row's takeoverSent).
func (n *Node) takeoverStampTask(s int) *recoveryTask {
	sent, frozen := n.streams[s].takeoverSent, n.streams[s].ts
	return &recoveryTask{
		counter: "takeover-stamps",
		armed: func(_ *Node, id types.EntryID, st *entrySt) (since, _, _ time.Duration) {
			if id.GID == s || sent[id] || st.stampedStreams[s] {
				return 0, 0, 0
			}
			return 1, 0, 0 // armed by the certified death itself
		},
		fire: func(n *Node, _ time.Duration, id types.EntryID, _ *entrySt, _ time.Duration) int {
			sent[id] = true
			n.emitRecord(cluster.Record{Kind: cluster.RecTS, Stream: s, Entry: id, TS: frozen})
			return 1
		},
	}
}

// onStreamFetch retransmits logged batches of one origin's stream from the
// requested cursor, as a bounded burst. Batches carry their own group
// certificates, so any holder — origin member or fellow receiver — can serve.
func (n *Node) onStreamFetch(from keys.NodeID, m *cluster.StreamFetch) {
	if !n.inLayout(m.Origin) {
		return
	}
	log := n.streams[m.Origin].log
	if len(log) == 0 {
		return
	}
	served := false
	for s := m.From; s < m.From+streamFetchBurst; s++ {
		b, ok := log[s]
		if !ok {
			break
		}
		n.ctx.Net.SendPriority(from, b, b.WireSize())
		served = true
	}
	if served {
		n.ctx.Metrics.Inc("stream-repair-served")
	}
}

// streamFetchBurst bounds one StreamFetch reply; the requester NACKs again if
// its cursor is still behind.
const streamFetchBurst = 64

// onChunkRepairReq serves a chunk-gap NACK. Both the sender group (every
// member holds the entry after local consensus) and a receiver-group LAN
// peer (once it rebuilt the entry) can re-derive the deterministic encoding
// and prove exactly the requested indexes. Nodes without the content stay
// silent; the requester's backoff rotates to another.
func (n *Node) onChunkRepairReq(from keys.NodeID, m *cluster.ChunkRepairReq) {
	enc, cert, ok := n.entryContent(m.Entry)
	if !ok || len(m.Missing) == 0 {
		return
	}
	var p *plan.Plan
	switch {
	case m.Entry.GID == n.g && from.Group != n.g:
		// We are in the origin group; encode for the requester's group.
		p = n.sendPlan(from.Group)
	case from.Group == n.g && m.Entry.GID != n.g:
		// LAN peer: re-derive the origin group's encoding for our group.
		p = n.recvPlan(m.Entry.GID)
	default:
		return
	}
	if p == nil {
		return
	}
	// Sanitize and bound the requested indexes.
	idx := make([]int, 0, len(m.Missing))
	seen := make(map[int]bool, len(m.Missing))
	for _, i := range m.Missing {
		if i >= 0 && i < p.Total && !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return
	}
	sort.Ints(idx)
	// The content was validated against cert when this node took it in, so
	// cert.Digest is the digest of enc.
	encd := n.encodeCached(cert.Digest, p, enc)
	if encd == nil {
		return
	}
	batch, err := encd.Batch(idx, m.Entry, cert)
	if err != nil {
		return
	}
	if from.Group == n.g {
		// LAN reply: wrap as a forward so the requester does not re-broadcast
		// chunks its peers already have.
		env := &cluster.BatchFwd{B: &batch}
		n.ctx.Net.Send(from, env, env.WireSize())
	} else {
		// WAN reply: a plain batch, which the requester re-shares over LAN.
		n.ctx.Net.Send(from, &batch, batch.WireSize())
	}
	n.ctx.Metrics.Inc("repair-served")
}
