package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/types"
)

// This file implements certified dynamic membership (DESIGN.md §11): epoch
// reconfiguration — admitting a provisioned standby group or removing an
// active one — driven through the same certified quorum machinery as the
// PR 3 failover protocol. No node-local decision changes the member set;
// every transition is a certified record on a per-group FIFO stream, so the
// whole state machine replays identically on every node.
//
// Join, as seen by any node (target group B, coordinator = successor(B)):
//
//	standby --admin trigger------------> voting            [RecGroupJoin from
//	                                                        each active group]
//	B itself --bootstrap via rejoin----> ready             [RecGroupJoin with
//	                                                        origin == B: the
//	                                                        readiness attestation]
//	quorum + ready --coordinator-------> joined(epoch+1)   [RecEpoch, TS = S]
//
// The RecEpoch's TS carries the join boundary S: B proposes its first entry
// at seq S+1, and every node skips B's rounds (or re-seats B's orderer head)
// up to S at the moment it processes the RecEpoch — the same cluster-wide
// cut discipline as a death cut, in the other direction. S is sound because
// the coordinator computes it from its own stream: no commit of the
// coordinator's group with seq >= S can precede the RecEpoch in its FIFO
// stream, and the pre-join standby round skips are bounded by the certified
// commit watermark (standbySkipBound), which that FIFO property keeps at or
// below S.
//
// Leave (target group L):
//
//	active --admin trigger-------------> voting            [RecGroupLeave from
//	                                                        each other group]
//	L itself --quorum observed---------> farewell          [RecGroupLeave with
//	                                                        origin == L: its
//	                                                        last-ever record]
//	farewell + quorum --coordinator----> departed(epoch+1) [RecEpoch, TS = cut]
//
// The farewell solves the divergence an abrupt cut would cause: a group's
// own members process their own batches without the onMetaBatch fence, so
// the cut must land exactly where L's stream actually ends. L stops emitting
// the moment its farewell is queued; the coordinator only certifies the
// RecEpoch after processing the farewell, so its cursor — the cut — covers
// precisely the prefix every L member also processed. Afterwards L is fenced
// exactly like a certified-dead group (applyGroupCut), its rounds are
// skipped / its clock frozen by the existing takeover machinery, and its
// members halt (selfDead) while still serving fetches for the agreed prefix.
//
// Trust model: like RecDead, a RecEpoch is taken at face value from the
// legitimate coordinator (receivers cannot re-check the vote quorum — their
// view of other streams at the processing instant differs node to node).
// Honesty is assumed at group granularity, exactly as for the failover
// records: a certified record requires a Byzantine quorum of the origin
// group's members to collude.

// onReconfigure ingests the admin membership trigger. It is unauthenticated
// intent: each correct group turns it into a certified vote, and only the
// vote quorum changes anything, so a lost, duplicated, or forged trigger is
// harmless (a forged one can at worst start a vote that honest operators
// did not ask for — the same power any single group's leader already has).
func (n *Node) onReconfigure(m *cluster.ReconfigureMsg) {
	g := m.Group
	if g < 0 || g >= n.ng {
		return
	}
	switch m.Op {
	case cluster.ReconfigJoin:
		if !n.standbyGroups[g] {
			return
		}
		if g == n.g {
			n.joinTriggered = true
			if n.selfStandby && !n.rejoining {
				n.startStandbyBootstrap()
			}
			return
		}
		n.wantJoin[g] = true
	case cluster.ReconfigLeave:
		if n.standbyGroups[g] || n.departed[g] || n.deadGroups[g] {
			return // not a member, or the failover machinery owns it
		}
		if n.memberCount() < 3 {
			return // never shrink below two member groups
		}
		n.wantLeave[g] = true
	}
}

// startStandbyBootstrap begins a cold standby node's entry into the cluster:
// a cross-group checkpointed state transfer from an active group (the same
// verifiable rejoin exchange a crashed node uses, but served across the WAN
// and installed without adopting the server group's proposer or PBFT state).
// Only after every member installs does the group's meta leader certify the
// readiness attestation that lets the join quorum complete.
func (n *Node) startStandbyBootstrap() {
	n.ctx.Metrics.Inc("standby-bootstraps")
	n.rejoining = true
	n.rejoinAttempts = 0
	n.rejoinBuf = nil
	n.armTicks()
	n.sendTransferReq()
}

// membershipScan is the meta-leader half of the membership protocol, driven
// from the takeover tick: it turns node-local intents into certified votes,
// emits the standby group's readiness attestation and the leaving group's
// farewell, and lets the coordinator certify the epoch switch.
func (n *Node) membershipScan(now time.Duration) {
	if !n.meta.IsLeader() {
		return
	}
	if n.standbyGroups[n.g] {
		// Pre-join, this group's only record is the readiness attestation:
		// certified proof that every consensus-relevant piece of state was
		// bootstrapped (the leader cannot speak for followers' installs, but
		// certifying the attestation itself requires a quorum of members to
		// be up and voting on the meta instance).
		if !n.selfStandby && !n.rejoining && !n.hasVote(n.joinVotes, n.g, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupJoin, Stream: n.g}, "join-ready-emitted")
		}
		return
	}
	for _, t := range sortedKeys(n.wantJoin) {
		if !n.standbyGroups[t] {
			delete(n.wantJoin, t)
			continue
		}
		if !n.hasVote(n.joinVotes, t, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupJoin, Stream: t}, "join-votes-emitted")
		}
	}
	for _, t := range sortedKeys(n.wantLeave) {
		if t == n.g || n.deadGroups[t] || n.departed[t] {
			if t != n.g {
				delete(n.wantLeave, t)
			}
			continue
		}
		if !n.hasVote(n.leaveVotes, t, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupLeave, Stream: t, TS: n.streamCursor(t)}, "leave-votes-emitted")
		}
	}
	// Own group's farewell: once a quorum of the other groups' leave votes
	// stands, certify the group's last-ever record and go silent. `leaving`
	// is set at queue time on the emitting leader so nothing can be queued
	// behind the farewell; followers set it when the record certifies. A
	// meta view change that destroys the uncertified farewell promotes a
	// follower with leaving still false, which re-emits here.
	if !n.leaving &&
		n.voteCount(n.leaveVotes, n.g) >= n.groupQuorum() &&
		!n.hasVote(n.leaveVotes, n.g, n.g) &&
		n.emitOnce(cluster.Record{Kind: cluster.RecGroupLeave, Stream: n.g}, "farewells-emitted") {
		n.leaving = true
	}
	n.epochScan()
}

// epochScan certifies the epoch switch (coordinator's meta leader only). At
// most one RecEpoch per epoch number is emitted — joins before leaves, lowest
// target first — which serializes concurrent membership ops: receivers only
// process Entry.Seq == epoch+1 from the then-legitimate coordinator, so
// whichever record lands first on the coordinator's FIFO stream wins
// identically everywhere and the loser is re-certified under the next epoch.
func (n *Node) epochScan() {
	if n.epochEmitted == n.epoch+1 {
		return
	}
	for _, t := range sortedKeys(n.standbyGroups) {
		if n.successor(t) != n.g ||
			n.voteCount(n.joinVotes, t) < n.groupQuorum() ||
			!n.hasVote(n.joinVotes, t, t) {
			continue
		}
		// Join boundary: one past the highest own-group commit this leader
		// has processed from its own stream or queued for it. No commit with
		// seq >= S can precede the RecEpoch on our FIFO stream, which is
		// exactly what makes the pre-join standby skips (bounded by the
		// certified commit watermark) and the joined group's first proposal
		// at S+1 agree on every node.
		s := n.commitHi[n.g]
		if n.ownCommitHi > s {
			s = n.ownCommitHi
		}
		if n.emitEpoch(t, cluster.ReconfigJoin, s+1) {
			return
		}
	}
	for _, t := range sortedKeys(n.leaveVotes) {
		if t == n.g || n.standbyGroups[t] || n.departed[t] || n.deadGroups[t] ||
			n.successor(t) != n.g ||
			n.voteCount(n.leaveVotes, t) < n.groupQuorum() ||
			!n.hasVote(n.leaveVotes, t, t) {
			continue
		}
		// The farewell (leaveVotes[t][t]) has been processed, so our cursor
		// for t's stream sits exactly past the end of everything t's own
		// members processed: the cut every node can agree on.
		if n.emitEpoch(t, cluster.ReconfigLeave, n.streamCursor(t)) {
			return
		}
	}
}

// emitEpoch queues the next epoch's switch for target t unless it is already
// pending, and reports whether it did.
func (n *Node) emitEpoch(t int, op byte, ts uint64) bool {
	rec := cluster.Record{Kind: cluster.RecEpoch, Stream: t, TS: ts,
		Entry: types.EntryID{GID: int(op), Seq: n.epoch + 1}}
	if !n.emitOnce(rec, "epochs-emitted") {
		return false
	}
	n.epochEmitted = n.epoch + 1
	return true
}

// onJoinRecord ingests a certified join approval for standby group
// rec.Stream. origin == target is the readiness attestation; any other
// origin is one vote of the quorum, and seconds the op locally so this
// group's leader emits its own vote.
func (n *Node) onJoinRecord(origin int, rec cluster.Record) {
	t := rec.Stream
	if t < 0 || t >= n.ng || !n.standbyGroups[t] {
		return
	}
	if origin != t && n.standbyGroups[origin] {
		return // standby groups have no vote (processRecords fences this)
	}
	votes := n.joinVotes[t]
	if votes == nil {
		votes = make(map[int]bool)
		n.joinVotes[t] = votes
	}
	if !votes[origin] {
		votes[origin] = true
		n.ctx.Metrics.Inc("join-votes")
	}
	if origin != t && t != n.g {
		n.wantJoin[t] = true // second the op
	}
}

// onLeaveRecord ingests a certified leave approval for active group
// rec.Stream. origin == target is the group's farewell — its last record.
func (n *Node) onLeaveRecord(origin int, rec cluster.Record) {
	t := rec.Stream
	if t < 0 || t >= n.ng || n.standbyGroups[t] || n.departed[t] || n.deadGroups[t] {
		return
	}
	votes := n.leaveVotes[t]
	if votes == nil {
		votes = make(map[int]bool)
		n.leaveVotes[t] = votes
	}
	if !votes[origin] {
		votes[origin] = true
		n.ctx.Metrics.Inc("leave-votes")
	}
	if origin == t {
		if t == n.g {
			// Our group's farewell certified: every member goes silent so
			// the stream ends here, exactly where the cut will land.
			n.leaving = true
		}
		return
	}
	if t != n.g {
		n.wantLeave[t] = true // second the op
	}
}

// onEpochRecord applies a certified epoch switch. Legitimacy is positional:
// only the current coordinator (successor of the target under the dead set
// as of this stream position — identical on every node) may move the epoch,
// and only with the next epoch number, so duplicates and re-emissions after
// meta view changes are inert.
func (n *Node) onEpochRecord(origin int, rec cluster.Record) {
	t := rec.Stream
	if t < 0 || t >= n.ng || origin == t {
		return
	}
	if rec.Entry.Seq != n.epoch+1 {
		n.ctx.Metrics.Inc("epoch-dupes")
		return
	}
	if origin != n.successor(t) {
		n.ctx.Metrics.Inc("epoch-bad-origin")
		return
	}
	switch byte(rec.Entry.GID) {
	case cluster.ReconfigJoin:
		if !n.standbyGroups[t] {
			return
		}
		n.applyJoin(t, rec.TS)
	case cluster.ReconfigLeave:
		if n.standbyGroups[t] || n.departed[t] || n.deadGroups[t] {
			return
		}
		n.applyLeave(t, rec.TS)
	default:
		return
	}
	n.epoch++
	delete(n.wantJoin, t)
	delete(n.wantLeave, t)
	delete(n.joinVotes, t)
	delete(n.leaveVotes, t)
	n.ctx.Metrics.Inc("epoch-switches")
}

// applyJoin admits standby group t with join boundary s: t proposes from
// s+1, and this node advances its ordering cursor for t past the void seqs
// that will never exist.
func (n *Node) applyJoin(t int, s uint64) {
	delete(n.standbyGroups, t)
	delete(n.deadGroups, t)
	delete(n.deadCut, t)
	delete(n.takeoverSent, t)
	n.joinStart[t] = s + 1
	if n.orderer != nil {
		// The async head for t is parked on a seq in the void prefix; jump
		// it to (t, s+1) or it can never be proven minimal and the drain
		// wedges (order.SkipTo).
		n.orderer.SkipTo(t, s)
	}
	if n.rounds != nil {
		// Complete the bounded pre-join skips up to the boundary. Rounds
		// beyond s belong to t now and are never pre-skipped — the standby
		// skip bound could not exceed s (see epochScan).
		for r := n.rounds.Round(); r <= s; r++ {
			n.rounds.Skip(types.EntryID{GID: t, Seq: r})
		}
	}
	if t == n.g {
		n.activateJoined(s)
	}
}

// activateJoined turns this freshly admitted group live: adopt the join
// boundary as the group clock, and emit the stamps/accepts the standby gate
// swallowed for entries that arrived during the bootstrap window (only the
// meta leader actually queues; emitStamp/emitRecord are leader-gated).
func (n *Node) activateJoined(s uint64) {
	n.clk = s
	if n.nextSeq < s+1 {
		n.nextSeq = s + 1
	}
	n.lastProposeAt = n.now()
	n.ctx.Metrics.Inc("groups-joined")
	for _, id := range n.sortedEntryIDs() {
		st := n.live(id)
		if st == nil || id.GID == n.g || !st.content {
			continue
		}
		switch {
		case n.opts.Ordering == cluster.OrderAsync && n.opts.OverlapVTS:
			n.emitStamp(id)
		case n.opts.Ordering == cluster.OrderAsync:
			n.emitRecord(cluster.Record{Kind: cluster.RecAccept, Stream: n.g, Entry: id})
			if st.committed {
				n.emitStamp(id)
			}
		case n.opts.GlobalConsensus:
			n.emitRecord(cluster.Record{Kind: cluster.RecAccept, Stream: n.g, Entry: id})
		}
	}
}

// applyLeave removes active group t behind the certified cut: from here on
// it is fenced, skipped, and frozen exactly like a certified-dead group —
// but it no longer counts in the quorum denominator.
func (n *Node) applyLeave(t int, cut uint64) {
	n.departed[t] = true
	n.applyGroupCut(t, cut)
	n.ctx.Metrics.Inc("groups-departed")
}

// standbySkipBound returns the highest round a standby group's slot may be
// skipped for before its certified join: one past the minimum certified
// own-commit watermark across the live groups. Any future coordinator is
// live now (the dead set only grows), and pre-RecEpoch this node's watermark
// for it cannot exceed the join boundary the RecEpoch will carry minus one
// (FIFO stream prefix) — so no round the joining group will own is ever
// pre-skipped.
func (n *Node) standbySkipBound() uint64 {
	bound := ^uint64(0)
	for g := 0; g < n.ng; g++ {
		if n.deadGroups[g] {
			continue // standby and departed groups are also in deadGroups
		}
		if n.commitHi[g] < bound {
			bound = n.commitHi[g]
		}
	}
	if bound == ^uint64(0) {
		return 0
	}
	return bound + 1
}

// skipStandbyRounds advances round-based ordering past a standby group's
// slots up to the certified bound (round mode's counterpart to the frozen
// takeover stamps async mode already gets from the dead-group machinery).
func (n *Node) skipStandbyRounds(s int) {
	bound := n.standbySkipBound()
	base := n.rounds.Round()
	for r := base; r < base+512 && r <= bound; r++ {
		n.rounds.Skip(types.EntryID{GID: s, Seq: r})
	}
}

// maybeSkipStandbyRounds keeps the standby skips at pace with the commit
// watermark between takeover ticks (called from onCommitRecord; the tick
// cadence alone would throttle round progress to the failover cadence).
func (n *Node) maybeSkipStandbyRounds() {
	if n.rounds == nil || len(n.standbyGroups) == 0 || n.standbyGroups[n.g] {
		return
	}
	for _, s := range sortedKeys(n.standbyGroups) {
		n.skipStandbyRounds(s)
	}
}

func (n *Node) hasVote(votes map[int]map[int]bool, target, origin int) bool {
	return votes[target] != nil && votes[target][origin]
}

// voteCount counts standing approvals for target from groups other than the
// target itself, restricted to current members (a departed approver's vote
// must not count toward a later quorum).
func (n *Node) voteCount(votes map[int]map[int]bool, target int) int {
	c := 0
	for o := range votes[target] {
		if o != target && !n.standbyGroups[o] && !n.departed[o] {
			c++
		}
	}
	return c
}

// EpochInfo reports the node's certified membership view: the epoch counter
// and the sorted member groups of the current epoch (certified-dead members
// included — death does not change membership).
func (n *Node) EpochInfo() (uint64, []int) {
	var members []int
	for g := 0; g < n.ng; g++ {
		if !n.standbyGroups[g] && !n.departed[g] {
			members = append(members, g)
		}
	}
	return n.epoch, members
}

// GroupDown reports whether group g is certified unable to answer clients —
// dead, departed, or still standby. The gateway requester uses it to skip
// hopeless resubmission targets.
func (n *Node) GroupDown(g int) bool {
	if g < 0 || g >= n.ng {
		return true
	}
	return n.deadGroups[g]
}
