package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/types"
)

// This file implements the node side of certified dynamic membership
// (DESIGN.md §11): epoch reconfiguration — admitting a provisioned standby
// group or removing a member — as transitions of the group table (groups.go;
// DESIGN.md §6 tabulates each state and the votes), driven through the same
// certified quorum machinery as failover. No node-local decision changes the
// member set; every transition is a certified record on a per-group FIFO
// stream that the table's step consumes, so it replays identically on every
// node. What stays here reads the rest of the node: the admin intents, the
// leader-gated vote and epoch scans (which read the commit watermarks) and
// the join activation. Standby groups exist under the MassBFT preset only
// (cluster.Config.Validate), so a join always runs on the overlapped VTS
// orderer.
//
// Join (target B, coordinator = successor(B)): each member group certifies
// a RecGroupJoin vote; B bootstraps through a cross-group rejoin and
// certifies its own RecGroupJoin (origin == B, the readiness attestation);
// at a vote quorum plus readiness the coordinator certifies RecEpoch with
// TS = S, and B's row becomes member. B proposes its first entry at S+1,
// and every node re-seats B's orderer head past S when it processes the
// RecEpoch. S is sound because the coordinator computes it from its own
// stream: no commit of the coordinator's group with seq >= S can precede the
// RecEpoch in its FIFO stream.
//
// Leave (target L): the other groups certify RecGroupLeave votes; at a
// quorum L certifies its farewell (RecGroupLeave with origin == L, its
// last-ever record) and goes silent; the coordinator, having processed the
// farewell, certifies RecEpoch with TS = its cursor for L, and L's row
// becomes departed at that cut. The farewell solves the divergence an
// abrupt cut would cause: a group's own members process their own batches
// without the onMetaBatch fence, so the cut must land exactly where L's
// stream actually ends — the coordinator's cursor covers precisely the
// prefix every L member also processed.
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
	if !n.inLayout(g) {
		return
	}
	switch m.Op {
	case cluster.ReconfigJoin:
		if n.groups.rows[g].State != standby {
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
		if n.groups.absent(g) {
			return // not a member, or the failover machinery owns it
		}
		if len(n.groups.members()) < 3 {
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
	n.ctx.Metrics.StandbyBootstraps++
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
	if n.groups.rows[n.g].State == standby {
		// Pre-join, this group's only record is the readiness attestation:
		// certified proof that every consensus-relevant piece of state was
		// bootstrapped (the leader cannot speak for followers' installs, but
		// certifying the attestation itself requires a quorum of members to
		// be up and voting on the meta instance).
		if !n.selfStandby && !n.rejoining && !n.groups.voted(n.g, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupJoin, Stream: n.g})
		}
		return
	}
	for _, t := range sortedKeys(n.wantJoin) {
		if n.groups.rows[t].State != standby {
			delete(n.wantJoin, t)
			continue
		}
		if !n.groups.voted(t, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupJoin, Stream: t})
		}
	}
	for _, t := range sortedKeys(n.wantLeave) {
		if t == n.g || n.groups.absent(t) {
			if t != n.g {
				delete(n.wantLeave, t)
			}
			continue
		}
		if !n.groups.voted(t, n.g) {
			n.emitOnce(cluster.Record{Kind: cluster.RecGroupLeave, Stream: t, TS: n.streamCursor(t)})
		}
	}
	// Own group's farewell: once a quorum of the other groups' leave votes
	// stands, certify the group's last-ever record and go silent. `leaving`
	// is set at queue time on the emitting leader so nothing can be queued
	// behind the farewell; followers set it when the record certifies. A
	// meta view change that destroys the uncertified farewell promotes a
	// follower with leaving still false, which re-emits here.
	if !n.leaving &&
		n.groups.voteCount(n.g) >= n.groups.quorum() && !n.groups.voted(n.g, n.g) &&
		n.emitOnce(cluster.Record{Kind: cluster.RecGroupLeave, Stream: n.g}) {
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
	tbl := &n.groups
	if n.epochEmitted == tbl.epoch+1 {
		return
	}
	ready := func(t int) bool {
		return tbl.successor(t, nil) == n.g && tbl.voteCount(t) >= tbl.quorum() && tbl.voted(t, t)
	}
	for t, row := range tbl.rows {
		if row.State != standby || !ready(t) {
			continue
		}
		// Join boundary: one past the highest own-group commit this leader
		// has processed from its own stream or queued for it. No commit with
		// seq >= S can precede the RecEpoch on our FIFO stream, so the joined
		// group's first proposal at S+1 lands where every node's orderer
		// head for it is re-seated.
		s := n.streams[n.g].commitHi
		if n.ownCommitHi > s {
			s = n.ownCommitHi
		}
		if n.emitEpoch(t, cluster.ReconfigJoin, s+1) {
			return
		}
	}
	for t, row := range tbl.rows {
		if t == n.g || row.State != member || !ready(t) {
			continue
		}
		// The farewell (t's own vote) has been processed, so our cursor for
		// t's stream sits exactly past the end of everything t's own members
		// processed: the cut every node can agree on.
		if n.emitEpoch(t, cluster.ReconfigLeave, n.streamCursor(t)) {
			return
		}
	}
}

// emitEpoch queues the next epoch's switch for target t unless it is already
// pending, and reports whether it did.
func (n *Node) emitEpoch(t int, op byte, ts uint64) bool {
	rec := cluster.Record{Kind: cluster.RecEpoch, Stream: t, TS: ts,
		Entry: types.EntryID{GID: int(op), Seq: n.groups.epoch + 1}}
	if !n.emitOnce(rec) {
		return false
	}
	n.epochEmitted = n.groups.epoch + 1
	return true
}

// admit carries out a certified join of group t with boundary s: t proposes
// from s+1, and this node advances its ordering cursor for t past the void
// seqs that will never exist.
func (n *Node) admit(t int, s uint64) {
	// The async head for t is parked on a seq in the void prefix; jump it to
	// (t, s+1) or it can never be proven minimal and the drain wedges
	// (order.SkipTo).
	n.orderer.SkipTo(t, s)
	if t == n.g {
		n.activateJoined(s)
	}
}

// activateJoined turns this freshly admitted group live: adopt the join
// boundary as the group clock, start the local PBFT at slot s so the stream
// resumes at seq s+1, and emit the stamps the standby gate swallowed for
// entries that arrived during the bootstrap window (only the meta leader
// actually queues; emitStamp is leader-gated).
func (n *Node) activateJoined(s uint64) {
	n.clk = s
	if n.local.NextDeliverSlot() < s {
		// A member that activates after its leader may already hold slots at
		// or past s; the image carries them over.
		snap := n.local.Export()
		snap.Slot = s
		n.local.Install(snap)
	}
	n.lastProposeAt = n.now()
	n.ctx.Metrics.GroupsJoined++
	for _, id := range n.sortedEntryIDs() {
		st := n.live(id)
		if st == nil || id.GID == n.g || !st.content {
			continue
		}
		n.emitStamp(id)
	}
}

// EpochInfo reports the node's certified membership view: the epoch counter
// and the sorted member groups of the current epoch (certified-dead members
// included — death does not change membership).
func (n *Node) EpochInfo() (uint64, []int) { return n.groups.epoch, n.groups.members() }

// GroupDown reports whether group g is certified unable to answer clients —
// dead, departed, or still standby. The gateway requester uses it to skip
// hopeless resubmission targets.
func (n *Node) GroupDown(g int) bool {
	return !n.inLayout(g) || n.groups.absent(g)
}
