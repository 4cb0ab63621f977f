package core

import (
	"bytes"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/trace"
	"massbft/internal/types"
)

// batchTick fires every BatchTimeout on every node; the current local leader
// cuts a batch when the protocol gate allows (§II-A "Batching").
func (n *Node) batchTick() {
	now := n.now()
	dt := now - n.lastTick
	n.lastTick = now
	if n.groups.absent(n.g) || n.leaving {
		// A dead, departed or standby group does not propose, nor does a
		// leaving group past its farewell record (membership.go).
		return
	}
	// Rate-limited groups accumulate client transactions continuously
	// (Fig 2 / Fig 12); saturated groups always have a full batch.
	if rate := n.groupRate(); rate > 0 {
		n.backlog += rate * dt.Seconds()
		if n.backlog > 4*float64(n.cfg.MaxBatch) {
			n.backlog = 4 * float64(n.cfg.MaxBatch)
		}
	}
	if !n.local.IsLeader() || !n.gateOpen() {
		return
	}
	size := n.cfg.MaxBatch
	var gwTxns []types.Transaction
	if n.cfg.Draining {
		// Heartbeats only: no client transactions, clocks keep advancing.
		if now-n.lastProposeAt < 5*n.cfg.BatchTimeout {
			return
		}
		size = 0
		if n.ctx.Gateway != nil {
			// Flush requests still queued at drain time so every admitted
			// client request reaches execution before the run settles.
			gwTxns = n.ctx.Gateway.TakeBatch(cluster.VirtualTime(now), n.cfg.MaxBatch, true)
		}
	} else if n.ctx.Gateway != nil {
		// Gateway mode: the proposal is whatever the adaptive batcher cuts
		// under its latency/size dual bound. With nothing admitted, propose
		// only idle heartbeats — the group clock must keep advancing so other
		// groups' tails can be ordered.
		gwTxns = n.ctx.Gateway.TakeBatch(cluster.VirtualTime(now), size, false)
		if len(gwTxns) == 0 && now-n.lastProposeAt < 5*n.cfg.BatchTimeout {
			return
		}
		size = len(gwTxns)
	} else if rate := n.groupRate(); rate > 0 {
		if int(n.backlog) < size {
			size = int(n.backlog)
		}
		if size < n.cfg.MaxBatch && now-n.lastProposeAt < 5*n.cfg.BatchTimeout {
			// Wait to fill the batch: a rate-limited group proposes full
			// entries less often (the Fig 2 entry-rate model), with partial
			// heartbeat entries only after an idle period — those keep the
			// group clock advancing so other groups' tails can be ordered
			// (Theorem V.6's termination requires ongoing proposals).
			return
		}
		n.backlog -= float64(size)
	}
	n.lastProposeAt = now
	e := &types.Entry{
		ID:   types.EntryID{GID: n.g, Seq: n.nextSeq},
		Term: uint64(now), // propose time, for end-to-end latency measurement
	}
	if gwTxns != nil {
		e.Txns = gwTxns
	} else if size > 0 {
		e.Txns = make([]types.Transaction, size)
		for i := range e.Txns {
			e.Txns[i] = n.ctx.Gen.Next(uint64(n.id.Index))
		}
	}
	n.nextSeq++
	n.inFlight++
	enc := e.Encode()
	// Retain the proposal until its seq certifies: a view change can fill the
	// slot with a no-op, and only this node can re-propose the content.
	// Registered before Propose so the tracing phase hook (which fires
	// synchronously on the leader's own pre-prepare) sees the entry as ours.
	// The group's followers take this entry from the process's decode memo
	// instead of decoding the payload (localEntry). A put that the propose
	// below fails to follow stays harmless: a value serves only its own bytes.
	n.proposed[e.ID.Seq] = &proposalSt{enc: enc, at: now}
	n.ctx.DecodeMemo.Put(e.ID, cluster.Decoded{Payload: enc, Entry: e})
	if err := n.local.Propose(enc); err != nil {
		// Lost leadership between the check and the call; retry next tick.
		delete(n.proposed, e.ID.Seq)
		n.nextSeq--
		n.inFlight--
		if len(gwTxns) > 0 {
			// Return the cut requests to the head of the gateway queue so
			// the new leader's forwarded copies (or our next tick) retry
			// them in order rather than losing them.
			n.ctx.Gateway.PushFront(gwTxns, cluster.VirtualTime(now))
		}
		return
	}
	// Counted once the proposal stands, so the undo path above needs no
	// decrement. Re-proposals after a view change (proposalRepairScan) are
	// the same entry and are not counted again.
	n.ctx.Metrics.EntriesProposed++
	n.ctx.Metrics.TxnsProposed += int64(len(e.Txns))
	if n.ctx.Trace != nil {
		// The entry's trace ID is its EntryID, born here; the propose span is
		// the instant anchor every later span hangs off.
		n.traceSpan(e.ID, trace.StagePropose, now, now)
	}
}

func (n *Node) groupRate() float64 {
	if n.g < len(n.cfg.GroupRate) {
		return n.cfg.GroupRate[n.g]
	}
	return 0
}

// gateOpen applies the protocol's proposal gate (§II-B Ordering column):
// pipeline depth for MassBFT/Baseline/GeoBFT, strict serialization for
// Steward, epoch barriers for ISS.
func (n *Node) gateOpen() bool {
	if n.inFlight >= n.cfg.PipelineDepth {
		return false
	}
	if n.opts.Serial {
		// One entry in flight globally: e_{g,s} may start only when every
		// entry of an earlier global slot has committed. The global slot of
		// e_{g,s} is (s-1)*ng + g. (Execution still happens per round, so
		// the gate waits on commits, not executions.)
		slot := int(n.nextSeq-1)*n.ng + n.g
		return n.commitCount >= slot
	}
	if n.opts.EpochLength > 0 {
		// ISS: an entry of epoch k may be proposed only when all epochs < k
		// have fully executed (epoch barrier).
		perEpoch := int(n.opts.EpochLength / n.cfg.BatchTimeout)
		if perEpoch < 1 {
			perEpoch = 1
		}
		epoch := int(n.nextSeq-1) / perEpoch
		return n.execCount >= epoch*perEpoch*n.ng
	}
	return true
}

// onLocalCommit receives entries certified by the local PBFT instance: every
// correct group member now holds (entry, certificate) and starts global
// replication (§III-B).
func (n *Node) onLocalCommit(slot uint64, payload []byte, cert *keys.Certificate) {
	if payload == nil {
		return // view-change no-op filler
	}
	e := n.localEntry(payload)
	if e == nil {
		return
	}
	_, mine := n.proposed[e.ID.Seq]
	delete(n.proposed, e.ID.Seq)
	st := n.st(e.ID)
	if st.content {
		return // re-proposal certified twice; the first delivery did the work
	}
	st.entry, st.enc, st.cert = e, payload, cert
	st.content = true
	st.contentAt = n.now()
	// Our own group now holds the entry; route through noteAccept so the
	// commit quorum is re-evaluated. Normally the local commit precedes every
	// foreign stamp and a later accept completes the quorum, but when the
	// local PBFT slot delivers late (stall + catch-up during a partition) the
	// foreign stamps are already counted — without this check commitSeen
	// never flips, the group clock wedges, and the stream's clock gossip
	// freezes every remote orderer's inference bounds.
	n.noteAccept(n.g, e.ID)
	n.lastLocalProgress = n.now()
	if n.nextSeq <= e.ID.Seq {
		n.nextSeq = e.ID.Seq + 1 // keep followers ready to take over
	}

	if mine && n.ctx.Trace != nil {
		// Propose → local certification on the proposer: the full local PBFT
		// round, enclosing the three per-phase spans.
		n.traceSpan(e.ID, trace.StageLocalConsensus, time.Duration(e.Term), n.now())
	}

	n.replicate(e, cert, payload, mine)

	switch {
	case n.opts.Ordering == cluster.OrderAsync:
		// Own entries are content-ready immediately; their self timestamp
		// is deterministic (vts[g] = seq) and flows to other groups when
		// the clock advances.
		n.orderer.MarkReady(e.ID)
	case n.opts.GlobalConsensus:
		// Round mode with global consensus: wait for the commit record.
		n.maybeRoundReady(e.ID, st)
	default:
		// GeoBFT: no global consensus; the entry is final after local
		// consensus + broadcast.
		st.committed = true
		n.maybeRoundReady(e.ID, st)
	}
}

// localEntry returns the decoded form of a local-consensus payload, or nil if
// it is not an entry of this group. The nodes of a process decode a payload
// at most once between them: the decode memo's entry for the ID serves when
// its payload equals this one (in the simulator PBFT hands the leader's
// slice through to every member, so the comparison is a pointer check), and
// a miss decodes and puts the result. Decoded entries are read-only, so
// sharing one is safe.
func (n *Node) localEntry(payload []byte) *types.Entry {
	hdr, _, err := types.PeekEntry(payload)
	if err != nil || hdr.ID.GID != n.g {
		return nil
	}
	if d, ok := n.ctx.DecodeMemo.Get(hdr.ID); ok && bytes.Equal(d.Payload, payload) {
		return d.Entry
	}
	e, err := types.DecodeEntry(payload)
	if err != nil {
		return nil
	}
	n.ctx.DecodeMemo.Put(e.ID, cluster.Decoded{Payload: payload, Entry: e})
	return e
}

// replicate transmits the entry to every other group using the configured
// strategy (§IV). mine marks the original proposer, which owns the entry's
// origin-side trace spans.
func (n *Node) replicate(e *types.Entry, cert *keys.Certificate, enc []byte, mine bool) {
	switch n.opts.Replication {
	case cluster.ReplEncoded:
		n.replicateEncoded(e, cert, enc, mine)
	case cluster.ReplBijective:
		n.replicateBijective(e, cert)
	case cluster.ReplOneWay:
		n.replicateOneWay(e, cert)
	}
}

// replicateEncoded is the paper's encoded bijective log replication (§IV-B):
// every node sends its Algorithm-1 chunk assignment to each receiver group.
func (n *Node) replicateEncoded(e *types.Entry, cert *keys.Certificate, enc []byte, mine bool) {
	byz := n.ctx.Faults.IsByzantine(n.id, n.now())
	// enc is the payload local consensus certified, so its digest is the
	// certificate's.
	src, digest := enc, cert.Digest
	id := e.ID
	if byz {
		// Byzantine senders encode a tampered entry instead (§VI-E); the
		// honest certificate is replayed with it.
		src = n.tamper(e)
		digest = keys.Hash(src)
	}
	encStart := n.now()
	var encCost time.Duration
	for r := 0; r < n.ng; r++ {
		if r == n.g {
			continue
		}
		p := n.sendPlan(r)
		encd := n.encodeCached(digest, p, src)
		if encd == nil {
			continue
		}
		if !byz && !mine {
			// Every receiver bucket under this encoding's root decodes to
			// exactly the certified payload: hand the receivers the entry
			// and the payload instead of one decode and one copy. The
			// followers seed; their entry is the decode memo's, in the
			// simulator the one the proposer built, so the proposer's own
			// seed would add nothing.
			replication.Seed(n.ctx.RebuildMemo, encd, e, enc, digest)
		}
		n.charge(time.Duration(len(src)) * n.cfg.Cost.EncodePerByte)
		encCost += time.Duration(len(src)) * n.cfg.Cost.EncodePerByte
		batches, recvs, err := encd.Batches(n.id.Index, id, cert)
		if err != nil {
			continue
		}
		for k := range batches {
			to := keys.NodeID{Group: r, Index: recvs[k]}
			n.ctx.Net.Send(to, &batches[k], batches[k].WireSize())
		}
	}
	if mine && encCost > 0 && n.ctx.Trace != nil {
		n.ctx.Trace.Record(trace.Span{
			Entry: id, Stage: trace.StageEncode, Node: n.id,
			Start: encStart, End: encStart + encCost, Bytes: int64(len(src)),
		})
	}
}

// tamper deterministically corrupts the entry body (same ID) the way the
// paper's colluding Byzantine nodes do.
func (n *Node) tamper(e *types.Entry) []byte {
	evil := *e
	evil.Txns = append([]types.Transaction(nil), e.Txns...)
	if len(evil.Txns) > 0 {
		t := evil.Txns[0]
		t.Payload = append([]byte("tampered"), t.Payload...)
		evil.Txns[0] = t
	}
	return evil.Encode()
}

// encodeCached returns the deterministic encoding under plan p of enc, the
// entry bytes whose digest is d, so a caller holding a validated certificate
// pays no hash. The result is memoized process-wide while the entry is in
// flight (every correct node derives the identical encoding; see
// replication.Memo) while the CPU cost is charged by the caller per node.
func (n *Node) encodeCached(d keys.Digest, p *plan.Plan, enc []byte) *replication.Encoded {
	key := replication.EncodeKey{Digest: d, Sender: p.SenderNodes, Receiver: p.ReceiverNodes}
	if cached, ok := n.ctx.EncodeMemo.Get(key); ok {
		return cached
	}
	n.ctx.Metrics.EncodeMemoMisses++
	encd, err := replication.Encode(enc, p)
	if err != nil {
		return nil
	}
	n.ctx.EncodeMemo.Put(key, encd)
	return encd
}
