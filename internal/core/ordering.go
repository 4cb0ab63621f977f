package core

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"massbft/internal/aria"
	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/replication"
	"massbft/internal/trace"
	"massbft/internal/types"
)

// flushTick proposes pending records through the meta instance (leader
// only); records reach the whole group certified and in a deterministic
// order, then fan out to other groups as MetaBatch messages.
func (n *Node) flushTick() {
	if n.groups.removed(n.g) {
		// A certified-dead group must not extend its stream past the cut:
		// receivers would fence the batch anyway, but our own members would
		// process it (own-group records skip the fence) and diverge.
		n.pendingRecs = nil
		return
	}
	if !n.meta.IsLeader() || len(n.pendingRecs) == 0 {
		return
	}
	recs := n.pendingRecs
	payload := cluster.EncodeRecords(recs)
	n.pendingRecs = nil
	if err := n.meta.Propose(payload); err != nil {
		// A view change is racing the flush; keep the records queued so the
		// group's stream does not silently lose them.
		n.pendingRecs = recs
	}
}

// onMetaCommit fires on every group member when the meta instance certifies
// a record batch in slot order. The leader relays the certified batch to the
// other groups (WAN); everyone applies it locally.
func (n *Node) onMetaCommit(slot uint64, payload []byte, cert *keys.Certificate) {
	n.lastMetaProgress = n.now()
	n.lastOwnStream = n.lastMetaProgress
	var recs []cluster.Record
	if payload != nil {
		var ok bool
		recs, ok = cluster.DecodeRecords(payload)
		if !ok {
			return
		}
	}
	// Message flooding (§V-C "Byzantine Nodes"): the leader plus f followers
	// broadcast the certified batch, so a crashed or stalling leader cannot
	// orphan the group's record stream. Every member logs it so anyone can
	// serve a receiver's stream-gap NACK later.
	batch := &cluster.MetaBatch{FromGroup: n.g, Seq: slot, Records: recs, Cert: cert}
	n.logBatch(batch)
	if n.id.Index <= n.ctx.Reg.Faulty(n.g) || n.meta.IsLeader() {
		n.sendToReceivers(batch)
	}
	n.processRecords(n.g, recs)
}

// onMetaBatch ingests a certified record batch from another group. Batches
// are processed strictly in per-origin sequence order so each group-clock
// stream stays FIFO — the property the orderer's inference relies on.
func (n *Node) onMetaBatch(from keys.NodeID, b *cluster.MetaBatch) {
	if b.FromGroup == n.g || !n.inLayout(b.FromGroup) {
		return
	}
	// Validate the certificate binds these records to the origin group.
	var payload []byte
	if len(b.Records) > 0 {
		payload = cluster.EncodeRecords(b.Records)
	}
	if b.Cert == nil || b.Cert.Group != b.FromGroup ||
		b.Cert.Digest != keys.Hash(payload) ||
		n.ctx.Reg.VerifyCertificate(b.Cert) != nil {
		n.ctx.Metrics.Inc("batch-cert-rejected")
		return
	}
	// Fence: a dead or departed group's stream ends at its cut. Batches at or
	// past the cut never process (and are not liveness evidence) — a
	// partition-side revival racing the death decision cannot extend the
	// stream the takeover stamps already froze. A standby group's stream
	// still flows: the only record a standby origin can land is its join
	// readiness attestation (processRecords drops everything else), and
	// fencing it would deadlock the join.
	if n.groups.removed(b.FromGroup) && b.Seq >= n.groups.rows[b.FromGroup].cut {
		n.ctx.Metrics.Inc("fenced-batches")
		return
	}
	in := &n.streams[b.FromGroup]
	in.heard = n.now()
	if b.Seq < in.next {
		return // duplicate
	}
	if _, dup := in.buffered[b.Seq]; dup {
		return
	}
	// A WAN receiver relays the batch into its group (the flooding senders
	// addressed only the first f+1 members).
	if from.Group != n.g {
		n.broadcastLocalPriority(b)
	}
	n.logBatch(b)
	in.buffered[b.Seq] = b
	for {
		nb, ok := in.buffered[in.next]
		if !ok {
			break
		}
		delete(in.buffered, in.next)
		in.next++
		n.processRecords(nb.FromGroup, nb.Records)
	}
	// Gap bookkeeping: batches buffered past the cursor mean an earlier batch
	// was lost in flight; the repair tick NACKs gaps older than RepairTimeout.
	if len(in.buffered) == 0 {
		in.setGap(0)
	} else if in.gapSince == 0 || in.gapAt != in.next {
		in.setGap(n.now())
	}
}

// logBatch retains a certified batch for serving stream-gap NACKs, bounded to
// partitionHorizon sequence numbers per origin.
func (n *Node) logBatch(b *cluster.MetaBatch) {
	log := n.streams[b.FromGroup].log
	if _, ok := log[b.Seq]; ok {
		return
	}
	log[b.Seq] = b
	if b.Seq >= partitionHorizon {
		delete(log, b.Seq-partitionHorizon)
	}
}

// processRecords applies certified records from the given origin group,
// dropping records fenced to a meta view older than the stream's highest: a
// re-emitted stamp (restampTask) carries the new leader's view, and a
// surviving in-flight copy from the deposed leader must not certify with a
// conflicting value after it. Per-origin streams are FIFO and meta slots
// commit in order, so a deposed leader's records that did certify (lower
// slots) always process before the new leader raises the fence — the drop
// only hits genuinely superseded duplicates, identically on every node. A
// record naming a group outside the layout is dropped whole: every group a
// record names indexes an origin row (a RecEpoch's Entry.GID is its op).
func (n *Node) processRecords(origin int, recs []cluster.Record) {
	in := &n.streams[origin]
	in.heard = n.now()
	for _, rec := range recs {
		if !n.inLayout(rec.Stream) || rec.Kind != cluster.RecEpoch && !n.inLayout(rec.Entry.GID) {
			continue
		}
		if rec.View < in.view {
			n.ctx.Metrics.Inc("stale-view-records")
			continue
		}
		if rec.View > in.view {
			in.view = rec.View
		}
		// A standby group has no say in consensus until its certified join:
		// the only record admitted from a standby origin is its own readiness
		// attestation.
		if n.groups.rows[origin].state == standby &&
			!(rec.Kind == cluster.RecGroupJoin && rec.Stream == origin) {
			n.ctx.Metrics.Inc("standby-fenced-records")
			continue
		}
		switch rec.Kind {
		case cluster.RecTS:
			n.onTSRecord(origin, rec)
		case cluster.RecAccept:
			n.onAcceptRecord(origin, rec)
		case cluster.RecCommit:
			n.onCommitRecord(origin, rec)
		case cluster.RecSuspect, cluster.RecRevoke, cluster.RecDead,
			cluster.RecGroupJoin, cluster.RecGroupLeave, cluster.RecEpoch:
			n.apply(n.groups.step(origin, rec))
		case cluster.RecKeepalive:
			// Liveness beacon: the batch arrival already refreshed the
			// row's heard above; the record carries nothing else.
		}
	}
}

func (n *Node) onTSRecord(origin int, rec cluster.Record) {
	if row := &n.streams[rec.Stream]; rec.TS > row.ts {
		row.ts = rec.TS
	}
	if n.orderer != nil {
		if err := n.orderer.OnTimestamp(rec.Stream, rec.TS, rec.Entry); err != nil {
			if origin != rec.Stream {
				// A stamp for stream S arriving via a DIFFERENT group's
				// certified stream is a takeover stamp racing the (supposedly
				// dead) owner — the split-brain signal the quorum-witnessed
				// failover exists to prevent. The owner's own post-cut records
				// are fenced at the batch layer, so under correct gating this
				// never fires.
				n.ctx.Metrics.Inc("ts-conflicts")
			} else {
				// Same-stream supersession: a re-emitted stamp (restampTask)
				// whose clock drifted past the original's in-flight copy, both
				// certifying in one view. First delivery wins, identically on
				// every node — records of one origin form a single FIFO stream.
				n.ctx.Metrics.Inc("ts-reemits")
			}
		}
	}
	// A stamp from another group on one of OUR entries doubles as that
	// group's accept (overlapped mode, §V-B).
	if rec.Entry.GID == n.g && origin != n.g {
		n.lastForeignStamp = n.now()
		n.noteAccept(origin, rec.Entry)
	}
	if rec.Entry.Seq <= n.streams[rec.Entry.GID].executed {
		return
	}
	st := n.st(rec.Entry)
	if st.stampedStreams == nil {
		st.stampedStreams = make(map[int]bool)
	}
	st.stampedStreams[rec.Stream] = true
	if origin != n.g {
		st.stamps[origin] = true
	}
	if !st.content && st.firstStampAt == 0 {
		st.firstStampAt = n.now()
		st.stampedBy = origin
		if origin == n.g {
			// Our own group's stamp proves nothing about local content: it
			// may be a slow-receiver stamp or a takeover stamp, emitted
			// precisely because the copy never arrived (e.g. severed by a
			// partition). The entry's origin group provably holds it (local
			// commit precedes any stream record), so seed the fetch rotation
			// there instead.
			st.stampedBy = rec.Entry.GID
		}
	}
	// Slow-receiver handling (§V-C): once f_g+1 groups have the entry (their
	// stamps double as accepts, broadcast to all groups), a group that has
	// not yet received the entry itself assigns its clock immediately, so a
	// congested downlink cannot stall the ordering of other groups.
	if n.opts.Ordering == cluster.OrderAsync && n.opts.OverlapVTS &&
		rec.Entry.GID != n.g && !st.content {
		quorum := n.groups.quorum()
		if len(st.stamps) >= quorum {
			n.emitStamp(rec.Entry)
		}
	}
}

func (n *Node) onAcceptRecord(origin int, rec cluster.Record) {
	if rec.Entry.GID == n.g && origin != n.g {
		n.noteAccept(origin, rec.Entry)
	}
	n.noteHolder(origin, rec.Entry)
}

// noteHolder records that origin provably holds the entry (it certified an
// accept or commit for it), arming the Lemma V.1 fetch path if this node
// still lacks the content. In round mode this is the only fetch trigger —
// there are no timestamp records.
func (n *Node) noteHolder(origin int, id types.EntryID) {
	if id.GID == n.g || origin == n.g || id.Seq <= n.streams[id.GID].executed {
		return
	}
	st := n.st(id)
	if !st.content && st.firstStampAt == 0 {
		st.firstStampAt = n.now()
		st.stampedBy = origin
	}
}

// noteAccept counts groups holding one of our entries; at a majority
// (f_g+1, the Raft quorum over groups) the entry has achieved global
// consensus: the clock advances (§V-A) and, in round/serial modes, the meta
// leader announces the commit.
func (n *Node) noteAccept(group int, id types.EntryID) {
	if id.Seq <= n.streams[id.GID].executed {
		return
	}
	st := n.st(id)
	st.stamps[group] = true
	quorum := n.groups.quorum()
	if len(st.stamps) < quorum || st.commitSeen {
		return
	}
	st.commitSeen = true
	if n.ctx.Trace != nil && st.contentAt > 0 {
		// Content certified locally → majority of groups hold it: the
		// replication-certificate assembly wait for our own entry.
		n.traceSpan(id, trace.StageCertAssembly, st.contentAt, n.now())
	}
	// Raft-style flow control: the proposer window advances at global
	// commit, not at execution — execution is a downstream, per-node
	// concern the paper deliberately decouples (§V).
	n.freeWindow(id, st)
	if n.opts.Ordering == cluster.OrderAsync {
		n.advanceClock()
		if !n.opts.OverlapVTS {
			n.noteOwnCommit(id.Seq)
			n.emitRecord(cluster.Record{Kind: cluster.RecCommit, Stream: n.g, Entry: id})
		}
	} else if n.opts.GlobalConsensus {
		// Round mode: committed flips only when our own commit record
		// certifies in our meta stream (onCommitRecord), exactly like serial
		// mode. Marking it locally here would let this group execute — and
		// GC — the entry while the record is still in flight; a meta view
		// change could then destroy the only copy with nobody left to
		// re-emit it (restampTask only walks live entries), wedging every
		// other group's round cursor forever.
		n.noteOwnCommit(id.Seq)
		n.emitRecord(cluster.Record{Kind: cluster.RecCommit, Stream: n.g, Entry: id})
	}
}

// noteOwnCommit raises the highest own-entry commit seq this group has queued
// for its stream. Together with our own row's commitHi (the certified
// watermark, tracked in onCommitRecord) it bounds the join boundary a
// coordinator certifies into a RecEpoch: no commit with a seq at or past the
// boundary can precede the RecEpoch in the coordinator's FIFO stream
// (membership.go).
func (n *Node) noteOwnCommit(seq uint64) {
	if seq > n.ownCommitHi {
		n.ownCommitHi = seq
	}
}

// advanceClock moves this group's logical clock to the highest contiguous
// own entry that achieved global consensus, emitting the deterministic
// self-stamp for each step so other groups can advance their inference
// (§V-B step 1).
func (n *Node) advanceClock() {
	for {
		id := types.EntryID{GID: n.g, Seq: n.clk + 1}
		st := n.entries[id]
		if st == nil || !st.commitSeen {
			return
		}
		n.clk++
		if n.opts.OverlapVTS {
			n.emitRecord(cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: n.clk})
		} else {
			st.tsSent = true
			n.emitRecord(cluster.Record{Kind: cluster.RecTS, Stream: n.g, Entry: id, TS: n.clk})
		}
	}
}

// onCommitRecord finalizes an entry that achieved global consensus.
func (n *Node) onCommitRecord(origin int, rec cluster.Record) {
	n.noteHolder(origin, rec.Entry)
	if row := &n.streams[origin]; rec.Entry.GID == origin && rec.Entry.Seq > row.commitHi {
		// Highest own-entry commit certified in origin's own stream: the
		// FIFO watermark that bounds how far a standby group's rounds may be
		// pre-skipped before its certified join (membership.go).
		row.commitHi = rec.Entry.Seq
		n.maybeSkipStandbyRounds()
	}
	if rec.Entry.Seq <= n.streams[rec.Entry.GID].executed {
		return
	}
	st := n.st(rec.Entry)
	if !st.committed {
		st.committed = true
		n.commitCount++
	}
	if n.opts.Ordering == cluster.OrderAsync && !n.opts.OverlapVTS {
		// Serial (3-RTT) VTS assignment: stamp only after global consensus
		// (Fig 7a).
		if rec.Entry.GID != n.g {
			n.emitStamp(rec.Entry)
		}
		return
	}
	n.maybeRoundReady(rec.Entry, st)
}

// onEntryFetch serves a full entry copy to a node that learned of the entry
// through a timestamp but never obtained its content (Lemma V.1). Executed
// entries are served from the archive — execution GCs live entry state — so
// the copy is decoded here, once per fetch: a straggler's request is rare.
func (n *Node) onEntryFetch(from keys.NodeID, m *cluster.EntryFetch) {
	enc, cert, ok := n.entryContent(m.Entry)
	if !ok {
		return
	}
	e, err := types.DecodeEntry(enc)
	if err != nil {
		return
	}
	env := &cluster.EntryWAN{E: &replication.EntryMsg{Entry: e, Cert: cert}}
	n.ctx.Net.Send(from, env, env.WireSize())
}

// entryContent returns the certified bytes of an entry and their certificate
// if this node still holds them, checking live state first, then the
// post-execution archive.
func (n *Node) entryContent(id types.EntryID) ([]byte, *keys.Certificate, bool) {
	if st := n.entries[id]; st != nil && st.content {
		return st.enc, st.cert, true
	}
	if a := n.archive[id]; a != nil {
		return a.enc, a.cert, true
	}
	return nil, nil, false
}

// takeoverTick drives the quorum-witnessed failover protocol (failover.go)
// and acts on certified deaths: silence feeds the suspicion scan, a quorum
// of certified suspicions lets the successor certify GroupDead, and only a
// certified death unlocks the §V-C takeover stamps (async) or the round
// skips (round modes). No node-local silence verdict survives here — under
// a WAN partition both sides may *suspect*, but at most one certified death
// decision can form, so the old split-brain fork cannot occur.
func (n *Node) takeoverTick() {
	now := n.now()
	if n.groups.removed(n.g) {
		// A dead or departed group halts: no re-proposal, no re-emission, no
		// suspicion. Members keep serving fetches for the agreed prefix.
		return
	}
	n.membershipScan(now)
	if n.groups.rows[n.g].state == standby {
		// A standby group's only duty pre-join is the readiness attestation
		// the membership scan just handled; it runs none of the recovery or
		// failover scans until the certified join activates it.
		return
	}
	ids := n.sortedEntryIDs()
	n.runTask(&restampTask, ids, now)
	n.proposalRepairScan(now)
	n.runTask(&rebroadcastTask, ids, now)
	n.keepaliveScan(now)
	if now < n.cfg.TakeoverTimeout*5 {
		return // give every group time to start speaking
	}
	n.suspectScan(now)
	n.deathScan(now)
	if n.rounds != nil {
		// Round mode: skip a removed group's uncommitted round slots — but
		// only once this node holds the group's full agreed prefix [0, cut),
		// so the committed set (and therefore the skip set) is identical on
		// every node. A standby group's rounds are instead skipped up to the
		// certified-commit watermark, which the eventual join boundary can
		// never undercut (skipStandbyRounds).
		for s, row := range n.groups.rows {
			switch {
			case row.state == standby:
				n.skipStandbyRounds(s)
			case n.groups.removed(s) && n.streamCursor(s) >= row.cut:
				n.skipDeadRounds(s)
			}
		}
		return
	}
	// Async mode: the successor's meta leader assigns an absent group's
	// frozen clock value to entries on its behalf (§V-C), gated on the same
	// agreed prefix so the frozen value is identical wherever leadership
	// sits. A standby group's clock is frozen at 0 with cut 0.
	if !n.meta.IsLeader() {
		return
	}
	for s, row := range n.groups.rows {
		if !n.groups.absent(s) || n.groups.successor(s, nil) != n.g || n.streamCursor(s) < row.cut {
			continue
		}
		n.runTask(n.takeoverStampTask(s), ids, now)
	}
}

// execute applies an ordered, content-ready entry (Algorithm 2's Execute).
func (n *Node) execute(id types.EntryID) {
	st := n.entries[id]
	if st == nil || st.entry == nil || st.executed {
		return
	}
	st.executed = true
	res, err := n.ctx.Engine.ExecuteBatch(st.entry.Txns)
	if err != nil {
		return
	}
	n.charge(time.Duration(len(st.entry.Txns)) * n.cfg.Cost.ExecPerTxn)
	n.execCount++
	if row := &n.streams[id.GID]; id.Seq > row.executed {
		row.executed = id.Seq
	}
	// Seal the executed entry into the node's ledger copy (§VI: a single,
	// globally ordered ledger), folding the outcome into the rolling digest.
	// Empty heartbeat entries carry no payload and are not sealed.
	if len(st.entry.Txns) > 0 {
		n.sealBlock(id, st, res)
	}
	n.noteExecuted(id, st.entry)
	now := n.now()

	if n.ctx.IsObserver {
		n.ctx.Metrics.RecordExecution(now, res.Committed, len(res.Aborted))
		n.ctx.Metrics.RecordLatency(now, now-time.Duration(st.entry.Term))
	}
	if n.ctx.Trace != nil {
		if st.contentAt > 0 {
			// Content held locally → globally ordered and runnable.
			n.traceSpan(id, trace.StageOrderingWait, st.contentAt, now)
		}
		n.ctx.Trace.Record(trace.Span{
			Entry: id, Stage: trace.StageExecute, Node: n.id,
			Start: now, End: now + time.Duration(len(st.entry.Txns))*n.cfg.Cost.ExecPerTxn,
		})
		delete(n.traceFirstChunk, id)
	}
	// Execution can precede commit-record processing (VTS inference orders
	// eagerly), and GeoBFT has no commit at all — free the window here if
	// the commit path has not already.
	n.freeWindow(id, st)
	if n.collector != nil {
		n.collector.Forget(id)
	}
	delete(n.chunkFrom, id)
	delete(n.entries, id)
	// An executed entry can never be re-stamped — drop it from the takeover
	// bookkeeping too, or the per-group maps grow for the whole run.
	for _, row := range n.streams {
		delete(row.takeoverSent, id)
	}
	n.archiveEntry(id, st)
}

// archiveEntry keeps an executed entry servable for straggler recovery as
// the bytes it was certified in — the decoded copy, and the transactions a
// leader generated, become garbage here — bounded per group; seqs execute in
// order, so evicting (seq - partitionHorizon) keeps the window tight without
// a scan.
func (n *Node) archiveEntry(id types.EntryID, st *entrySt) {
	n.archive[id] = &archived{enc: st.enc, cert: st.cert}
	if id.Seq > partitionHorizon {
		delete(n.archive, types.EntryID{GID: id.GID, Seq: id.Seq - partitionHorizon})
	}
}

// freeWindow releases the proposer pipeline slot of an own-group entry
// exactly once (at global commit or execution, whichever this node sees
// first).
func (n *Node) freeWindow(id types.EntryID, st *entrySt) {
	if id.GID != n.g || st.windowFreed {
		return
	}
	st.windowFreed = true
	if n.inFlight > 0 {
		n.inFlight--
	}
}

// sealBlock appends one executed entry to the node's ledger, folding the
// outcome into the rolling execution digest.
func (n *Node) sealBlock(id types.EntryID, st *entrySt, res aria.Result) {
	d := st.cert.Digest
	n.stateRoll = rollForward(n.stateRoll, d, uint32(res.Committed), uint32(len(res.Aborted)))
	n.ledger.Append(id, d, res.Committed, len(res.Aborted), n.stateRoll)
}

// rollForward folds one sealed block's outcome into the rolling execution
// digest — the single definition shared by sealBlock and the rejoin suffix
// verification (verifySuffix), which recomputes the chain it is offered.
func rollForward(roll [32]byte, d keys.Digest, committed, aborted uint32) [32]byte {
	h := sha256.New()
	h.Write(roll[:])
	h.Write(d[:])
	var cnt [8]byte
	binary.BigEndian.PutUint32(cnt[:4], committed)
	binary.BigEndian.PutUint32(cnt[4:], aborted)
	h.Write(cnt[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}
