package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/types"
)

// This file implements the node side of the quorum-witnessed failover
// protocol that replaces the §V-C node-local liveness verdicts. A group's
// silence is no longer acted on unilaterally: the observing group certifies a
// GroupSuspect attestation into its own meta stream, the suspected group's
// revival is withdrawn with a certified GroupRevoke, and only the designated
// successor — after collecting standing suspicions from a Byzantine quorum of
// groups — certifies the GroupDead decision that unlocks the async takeover
// stamps and the round-mode skips. Every transition travels as a certified
// record on a per-group FIFO stream and is consumed by the group table's step
// (groups.go; DESIGN.md §6), so the state machine replays identically on
// every node (and across rejoins, via the checkpoint fold). What stays here
// touches the rest of the node: the leader-gated scans that feed the table's
// emitters, carrying out the transitions step makes, and the round skips.
//
// The death cut is a position in G's FIFO batch stream: the maximum of every
// collected suspicion cursor and the successor's own cursor. All nodes
// process exactly G's batches [0, cut), so the set of G's entries that
// committed — and therefore the async frozen-clock value and the round-mode
// skip/await decision per round — is identical cluster-wide.

// streamCursor returns this node's next-expected MetaBatch seq for group g.
func (n *Node) streamCursor(g int) uint64 { return n.streams[g].next }

// keepaliveScan (meta leader only) keeps the group's certified stream audibly
// alive while the group has nothing to say. The failover protocol equates
// stream silence with death, which is only sound if a live group never falls
// silent — yet a group whose clock is stalled (own-entry stamps delayed behind
// congested WAN bulk queues) produces no records while its local and meta
// instances are perfectly healthy, and the observers' death quorum certifies
// a false GroupDead that wedges the group forever. A RecKeepalive every
// quarter SuspectTimeout restores the invariant: receivers count the batch
// arrival as liveness, so only genuine crash or partition silences a stream.
func (n *Node) keepaliveScan(now time.Duration) {
	if !n.meta.IsLeader() || n.leaving || n.cfg.SuspectTimeout == 0 {
		return
	}
	if len(n.pendingRecs) > 0 {
		return // the stream is about to extend anyway
	}
	if now-n.lastOwnStream <= n.cfg.SuspectTimeout/4 {
		return
	}
	// Stamp at queue time, not certification: if the meta instance is slow the
	// scan must not queue a fresh beacon every tick while one is in flight.
	n.lastOwnStream = now
	n.ctx.Metrics.KeepalivesEmitted++
	n.emitRecord(cluster.Record{Kind: cluster.RecKeepalive, Stream: n.g})
}

// silentFor returns the silence oracle of the failover emitters: a stream is
// silent once it has shown no liveness evidence for SuspectTimeout.
func (n *Node) silentFor(now time.Duration) func(int) bool {
	return func(g int) bool { return now-n.streams[g].heard > n.cfg.SuspectTimeout }
}

// suspectScan certifies (meta leader only) the table's suspicions and
// revocations (groupTable.suspicions).
func (n *Node) suspectScan(now time.Duration) {
	if !n.meta.IsLeader() {
		return
	}
	for _, rec := range n.groups.suspicions(n.silentFor(now), n.streamCursor) {
		n.emitOnce(rec)
	}
}

// deathScan certifies (meta leader only) the deaths this group is the
// successor for (groupTable.deaths); more than one in a scan is a batch.
func (n *Node) deathScan(now time.Duration) {
	if !n.meta.IsLeader() {
		return
	}
	emitted := 0
	for _, rec := range n.groups.deaths(n.silentFor(now), n.streamCursor) {
		if n.emitOnce(rec) {
			emitted++
		}
	}
	if emitted > 1 {
		n.ctx.Metrics.DeathBatches++
	}
}

// apply carries out a group-table transition and hands it to the sink.
func (n *Node) apply(tr cluster.Transition) {
	g := tr.Group
	switch tr.Kind {
	case cluster.TransDead, cluster.TransDepart:
		tr.Cursor = n.streamCursor(g)
		if g != n.g {
			// Our own group needs no fence: removed(n.g) now halts proposing
			// and record emission so it cannot extend a fork past the cut;
			// members keep serving fetches for the agreed prefix.
			n.fenceStream(g, tr.At)
		}
	case cluster.TransAdmit:
		// A join is the only transition out of an absent state: the stamps
		// sent on the group's behalf while it was absent are done with.
		clear(n.streams[g].takeoverSent)
		n.admit(g, tr.At)
	case cluster.TransJoinVote:
		if tr.Origin != g && g != n.g {
			n.wantJoin[g] = true // second the join
		}
	case cluster.TransLeaveVote:
		if g != n.g {
			n.wantLeave[g] = true
		}
	case cluster.TransFarewell:
		n.leaving = n.leaving || g == n.g
	}
	if tr.Kind == cluster.TransAdmit || tr.Kind == cluster.TransDepart {
		// The epoch moved for g: its node-local intents are done.
		delete(n.wantJoin, g)
		delete(n.wantLeave, g)
	}
	n.transition(tr, nil)
}

// fenceStream drops group g's buffered batches at or past its cut: they will
// never process.
func (n *Node) fenceStream(g int, cut uint64) {
	in := &n.streams[g]
	for s := range in.buffered {
		if s >= cut {
			delete(in.buffered, s)
			n.ctx.Metrics.FencedBatches++
		}
	}
	if len(in.buffered) == 0 && in.next >= cut {
		in.setGap(0)
	}
}

// skipDeadRounds lets round-based ordering progress past a certified-dead
// group's permanently-missing entries. Rounds whose entry committed inside
// the agreed prefix are NOT skipped: the commit certified in the dead
// group's own stream below the cut, so every node awaits and executes it
// (the content is fetchable per Lemma V.1). Everything else in the
// look-ahead window is skipped — deterministically, because the committed
// set is fully determined by the prefix every node processed identically.
func (n *Node) skipDeadRounds(s int) {
	base := n.rounds.Round()
	for r := base; r < base+512; r++ {
		if r <= n.streams[s].executed {
			continue
		}
		id := types.EntryID{GID: s, Seq: r}
		if st := n.entries[id]; st != nil && st.committed {
			continue
		}
		n.rounds.Skip(id)
	}
}

// restoreFailover installs a checkpoint's group table wholesale (valid has
// checked it) and starts the node-local membership state over.
func (n *Node) restoreFailover(ck *cluster.Checkpoint) {
	n.groups.restore(ck)
	n.ownCommitHi = 0
	n.epochEmitted = 0
	n.wantJoin = make(map[int]bool)
	n.wantLeave = make(map[int]bool)
	n.leaving = false
}
