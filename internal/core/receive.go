package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/trace"
	"massbft/internal/types"
)

// replicateBijective is the plain bijective approach of §IV-A (the BR
// ablation): f1+f2+1 sender nodes each transmit a complete entry copy to a
// distinct receiver node, or plan.Bijective's partitioned plan when either
// group is smaller than that.
func (n *Node) replicateBijective(e *types.Entry, cert *keys.Certificate) {
	msg := &cluster.EntryWAN{E: &replication.EntryMsg{Entry: e, Cert: cert}}
	for r := 0; r < n.ng; r++ {
		if r == n.g {
			continue
		}
		// No error: Config.Validate rejected non-positive sizes, and every
		// positive pair has a plan (each sender to every receiver is one).
		pairs, _ := plan.Bijective(n.cfg.GroupSizes[n.g], n.cfg.GroupSizes[r])
		for _, tr := range pairs {
			if tr.Sender == n.id.Index {
				n.ctx.Net.Send(keys.NodeID{Group: r, Index: tr.Receiver}, msg, msg.WireSize())
			}
		}
	}
}

// replicateOneWay is the leader-only strategy of Baseline/GeoBFT (§II-A,
// with the GeoBFT optimization): the group leader sends the entry to f+1
// nodes of each receiver group.
func (n *Node) replicateOneWay(e *types.Entry, cert *keys.Certificate) {
	if !n.local.IsLeader() {
		return
	}
	msg := &cluster.EntryWAN{E: &replication.EntryMsg{Entry: e, Cert: cert}}
	for r := 0; r < n.ng; r++ {
		if r == n.g {
			continue
		}
		copies := n.ctx.Reg.Faulty(r) + 1
		for j := 0; j < copies && j < n.cfg.GroupSizes[r]; j++ {
			n.ctx.Net.Send(keys.NodeID{Group: r, Index: j}, msg, msg.WireSize())
		}
	}
}

// onChunkBatch ingests a multiproof-authenticated chunk batch, either from
// WAN (fromRemote) or re-broadcast over LAN by a group peer.
func (n *Node) onChunkBatch(from keys.NodeID, b *replication.ChunkBatch, fromRemote bool) {
	if n.collector == nil || n.blacklist[from] || !n.inLayout(b.Entry.GID) ||
		b.Entry.Seq <= n.streams[b.Entry.GID].executed {
		return
	}
	_, known := n.entries[b.Entry]
	_, traced := n.traceFirstChunk[b.Entry]
	n.noteChunkArrival(b.Entry)
	n.traceChunkArrival(b.Entry)
	// The senders are recorded before AddBatch: a rebuild it triggers reads
	// them to blacklist a fake bucket's suppliers.
	senders := n.chunkFrom[b.Entry]
	if senders == nil {
		senders = make(map[int]keys.NodeID)
		n.chunkFrom[b.Entry] = senders
	}
	var buf [16]int // room for a batch's new indexes without a heap allocation
	added := buf[:0]
	for _, idx := range b.Indices {
		if _, seen := senders[idx]; !seen {
			senders[idx] = from
			added = append(added, idx)
		}
	}
	fwd, err := n.collector.AddBatch(b)
	if err != nil {
		// A rejected batch leaves no per-entry state behind, or forged
		// frames would grow it for good. A rejected batch can still have
		// completed a rebuild (a new certificate on a full bucket): the
		// content it delivered stays.
		for _, idx := range added {
			delete(senders, idx)
		}
		if len(senders) == 0 {
			delete(n.chunkFrom, b.Entry)
		}
		if st := n.entries[b.Entry]; !known && st != nil && !st.content {
			delete(n.entries, b.Entry)
		}
		if !traced {
			delete(n.traceFirstChunk, b.Entry)
		}
		return
	}
	if fwd && fromRemote {
		out := b
		if n.ctx.Faults.IsByzantine(n.id, n.now()) {
			if evil := n.tamperedBatch(b); evil != nil {
				out = evil
			}
		}
		env := &cluster.BatchFwd{B: out}
		n.broadcastLocal(env)
	}
}

// noteChunkArrival timestamps the first chunk of a foreign entry; the repair
// timer measures bucket stall from this point.
func (n *Node) noteChunkArrival(id types.EntryID) {
	n.streams[id.GID].bulkAt = n.now()
	if n.cfg.RepairTimeout <= 0 {
		return
	}
	st := n.st(id)
	if !st.content && st.firstChunkAt == 0 {
		st.firstChunkAt = n.now()
	}
}

// tamperedBatch substitutes the matching chunks of the tampered entry into a
// batch a Byzantine receiver re-broadcasts (§VI-E).
func (n *Node) tamperedBatch(b *replication.ChunkBatch) *replication.ChunkBatch {
	st := n.entries[b.Entry]
	if st == nil || st.entry == nil {
		return nil
	}
	p := n.recvPlan(b.Entry.GID)
	if p == nil {
		return nil
	}
	evilEnc := n.tamper(st.entry)
	encd := n.encodeCached(keys.Hash(evilEnc), p, evilEnc)
	if encd == nil {
		return nil
	}
	evil, err := encd.Batch(b.Indices, b.Entry, b.Cert)
	if err != nil {
		return nil
	}
	// It claims the honest entry's length, not the tampered encoding's own.
	evil.DataLen = b.DataLen
	return &evil
}

// onRebuilt fires when the collector delivers a rebuilt, certificate-valid
// foreign entry (§IV-C).
func (n *Node) onRebuilt(senderGroup int, r replication.Rebuilt) {
	cost := time.Duration(r.Entry.WireSize()) * n.cfg.Cost.RebuildPerByte
	n.charge(cost)
	if n.ctx.Trace != nil {
		now := n.now()
		if first, ok := n.traceFirstChunk[r.Entry.ID]; ok {
			// First chunk seen → enough chunks to rebuild: collection wait.
			n.traceSpan(r.Entry.ID, trace.StageChunkCollect, first, now)
			delete(n.traceFirstChunk, r.Entry.ID)
		}
		n.ctx.Trace.Record(trace.Span{
			Entry: r.Entry.ID, Stage: trace.StageRebuild, Node: n.id,
			Start: now, End: now + cost, Bytes: int64(r.Entry.WireSize()),
		})
	}
	n.onContent(r.Entry, r.Enc, r.Cert)
}

// onRebuildFailure blacklists the peers that supplied the fake bucket's
// chunks; afterwards "a correct node can only receive chunks from other
// correct nodes" (§VI-E).
func (n *Node) onRebuildFailure(id types.EntryID, chunkIDs []int) {
	senders := n.chunkFrom[id]
	for _, idx := range chunkIDs {
		if from, ok := senders[idx]; ok {
			n.blacklist[from] = true
		}
	}
}

// onEntryCopy ingests a complete entry copy: one-way/bijective replication,
// or an EntryFetch reply — which may carry an own-group entry this node
// missed because its local PBFT slot was lost (catch-up serves recent slots
// only; older ones arrive here via the Lemma V.1 fetch path).
func (n *Node) onEntryCopy(m *replication.EntryMsg, fromRemote bool) {
	if m.Entry == nil || !n.inLayout(m.Entry.ID.GID) {
		return
	}
	if m.Entry.ID.Seq <= n.streams[m.Entry.ID.GID].executed {
		return // late copy of an executed entry must not resurrect state
	}
	// No entry state before the copy validates: onContent creates it.
	if st := n.entries[m.Entry.ID]; st != nil && st.content {
		return
	}
	n.charge(time.Duration(len(m.Entry.Txns)) * time.Microsecond / 2) // copy/validate overhead
	enc, err := replication.ValidateEntryMsg(n.ctx.Reg, m)
	if err != nil {
		return
	}
	if fromRemote {
		// First correct receiver forwards the copy to the whole group (§II-A).
		env := &cluster.EntryFwd{E: m}
		n.broadcastLocal(env)
	}
	n.onContent(m.Entry, enc, m.Cert)
}

// onContent runs once per foreign entry when its content becomes available
// and validated on this node; enc is the encoding cert certifies.
func (n *Node) onContent(e *types.Entry, enc []byte, cert *keys.Certificate) {
	st := n.st(e.ID)
	if st.content {
		return
	}
	st.entry, st.enc, st.cert = e, enc, cert
	st.content = true
	st.contentAt = n.now()
	// Own-group entries arriving here were fetched after a lost local slot:
	// mark our group as holder, but never emit accept/stamp records for them
	// (self stamps are the clock's job and carry TS == seq, not n.clk).
	own := e.ID.GID == n.g
	if own {
		// noteAccept rather than a bare stamps[n.g] = true: the fetched copy
		// may be the last piece of an already-stamped quorum (see
		// onLocalCommit), and the quorum must be re-evaluated when it lands.
		n.noteAccept(n.g, e.ID)
	}
	if !own && n.ctx.Trace != nil {
		// Propose on the origin group → content available here: the full
		// replication hop as seen by this receiver.
		n.traceSpan(e.ID, trace.StageGlobalReplication, time.Duration(e.Term), n.now())
	}
	if n.opts.Ordering == cluster.OrderAsync {
		n.orderer.MarkReady(e.ID)
		if own {
			return
		}
		if n.opts.OverlapVTS {
			// Overlapped VTS assignment (§V-B): stamp on receipt of the
			// propose, not after global consensus.
			n.emitStamp(e.ID)
		} else {
			n.emitRecord(cluster.Record{Kind: cluster.RecAccept, Stream: n.g, Entry: e.ID})
		}
		return
	}
	// Round mode.
	if n.opts.GlobalConsensus {
		if !own {
			n.emitRecord(cluster.Record{Kind: cluster.RecAccept, Stream: n.g, Entry: e.ID})
		}
		n.maybeRoundReady(e.ID, st)
	} else {
		st.committed = true
		n.maybeRoundReady(e.ID, st)
	}
}

// emitStamp queues this group's timestamp assignment for the entry: the
// current group clock value (§V-A "Vector Timestamp Assignment").
func (n *Node) emitStamp(id types.EntryID) {
	// Only the meta leader emits; followers must NOT mark tsSent, or a
	// follower promoted by a view change would skip re-emitting stamps the
	// dead leader never certified (see onMetaViewChange).
	if !n.meta.IsLeader() {
		return
	}
	if n.groups.rows[n.g].state == standby {
		// A standby group must not stamp — and must not mark tsSent either,
		// or the post-join activation sweep (activateJoined) could never
		// re-emit the stamp this drop swallowed.
		return
	}
	st := n.st(id)
	if st.tsSent {
		return
	}
	if st.stampedStreams != nil && st.stampedStreams[n.g] {
		// Our group's clock already stamped this entry — either before this
		// node bootstrapped into the group, or via a frozen takeover stamp
		// emitted on our behalf while the group was standby. Emitting a
		// fresh (different) value now would conflict on our own stream.
		st.tsSent = true
		return
	}
	st.tsSent = true
	n.emitRecord(cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: n.stampTS()})
}

// stampTS returns the timestamp for a fresh foreign-entry stamp: the group
// clock, clamped to everything already certified or queued on our stream.
// VTS inference treats each group's stream as non-decreasing (a received TS
// is a lower bound on all future assignments), so an emission below the
// stream's high-water — possible when leadership moves to a node with a
// lagging clock, or when a lost stamp is re-emitted later — would let nodes
// order on bounds the real assignment then undercuts, forking the order.
// Own-entry self stamps are exempt: their assignment is preset (vts[g]=seq)
// on every node, so a late, low self stamp record cannot lower anything.
func (n *Node) stampTS() uint64 {
	ts := n.clk
	if hw := n.streams[n.g].ts; hw > ts {
		ts = hw
	}
	if n.hiQueuedTS > ts {
		ts = n.hiQueuedTS
	}
	return ts
}

// emitRecord queues a record for meta certification; only the current meta
// leader proposes, so followers simply remember nothing (the leader observes
// the same protocol events and queues the same records).
func (n *Node) emitRecord(rec cluster.Record) {
	if !n.meta.IsLeader() || n.groups.removed(n.g) {
		return
	}
	if n.groups.rows[n.g].state == standby && rec.Kind != cluster.RecGroupJoin {
		// A standby group's only permissible record is its join readiness
		// attestation; everything else would be fenced remotely anyway and
		// must not burn stream positions.
		return
	}
	if n.leaving && !(rec.Kind == cluster.RecGroupLeave && rec.Stream == n.g) {
		// Past the farewell, the stream must end exactly where the leave cut
		// will land: only a farewell re-emission (after a meta view change
		// destroyed the first) may still be queued.
		return
	}
	// Fence the record to the emitting leader's meta view: receivers drop
	// records from views older than the highest they have processed per origin
	// stream, so a re-emitted stamp supersedes the deposed leader's copy.
	rec.View = n.meta.View()
	if rec.Kind == cluster.RecTS && rec.Stream == n.g && rec.TS > n.hiQueuedTS {
		n.hiQueuedTS = rec.TS
	}
	n.pendingRecs = append(n.pendingRecs, rec)
}

// maybeRoundReady marks an entry executable in round mode once both its
// content and (when global consensus is on) its commit have arrived.
func (n *Node) maybeRoundReady(id types.EntryID, st *entrySt) {
	if n.rounds == nil || !st.content || !st.committed || st.executed {
		return
	}
	n.rounds.MarkReady(id)
}
