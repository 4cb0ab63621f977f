package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/types"
)

// This file implements the quorum-witnessed failover protocol that replaces
// the §V-C node-local liveness verdicts. A group's silence is no longer acted
// on unilaterally: the observing group certifies a GroupSuspect attestation
// into its own meta stream, the suspected group's revival is withdrawn with a
// certified GroupRevoke, and only the designated successor — after collecting
// standing suspicions from a Byzantine quorum of groups — certifies the
// GroupDead decision that unlocks the async takeover stamps and the
// round-mode skips. Every transition travels as a certified record on a
// per-group FIFO stream and changes one row of the node's group table
// (groupSt; DESIGN.md §6 tabulates each state), so the whole state machine
// replays identically on every node (and across rejoins, via the
// checkpoint fold). Suspicions and revocations edit a member's row;
// RecDead replaces it with a dead one.
//
// The death cut is a position in G's FIFO batch stream: the maximum of every
// collected suspicion cursor and the successor's own cursor. All nodes
// process exactly G's batches [0, cut), so the set of G's entries that
// committed — and therefore the async frozen-clock value and the round-mode
// skip/await decision per round — is identical cluster-wide.

// lastSeen returns the latest liveness evidence for group g's record stream:
// the last in-order record processing, or any out-of-order batch arrival
// (a lossy-but-alive stream is repaired, not suspected).
func (n *Node) lastSeen(g int) time.Duration {
	last := n.lastStreamAt[g]
	if in := n.streams[g]; in != nil && in.lastArrival > last {
		last = in.lastArrival
	}
	return last
}

// streamCursor returns this node's next-expected MetaBatch seq for group g.
func (n *Node) streamCursor(g int) uint64 {
	if in := n.streams[g]; in != nil {
		return in.next
	}
	return 0
}

// memberCount is the number of groups in the current epoch: member and dead
// rows. A crash does not shrink the quorum denominator; a standby or departed
// group is not in it.
func (n *Node) memberCount() int {
	c := 0
	for g := range n.groups {
		if n.inEpoch(g) {
			c++
		}
	}
	return c
}

// groupQuorum is the Byzantine quorum over the current epoch's member groups —
// the same majority the accept/commit phases use.
func (n *Node) groupQuorum() int { return (n.memberCount()-1)/2 + 1 }

// successor returns the designated successor for group g: the lowest-numbered
// group other than g that is not itself absent. While the live majority of
// the cluster is connected this is unique, which is what makes the GroupDead
// decision single-writer.
func (n *Node) successor(g int) int {
	for h := 0; h < n.ng; h++ {
		if h != g && !n.absent(h) {
			return h
		}
	}
	return -1
}

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
	n.ctx.Metrics.Inc("keepalives-emitted")
	n.emitRecord(cluster.Record{Kind: cluster.RecKeepalive, Stream: n.g})
}

// suspectScan emits (meta leader only) the suspicion half of the protocol:
// a certified GroupSuspect when another group's stream has been silent past
// SuspectTimeout, and a certified GroupRevoke withdrawing it if the stream
// revives before a death quorum forms. The standing-suspicion state
// (ownSuspect) is derived from the group's certified stream on every member,
// so a leader change preserves suspicions and the new leader keeps the
// revocation duty.
func (n *Node) suspectScan(now time.Duration) {
	if !n.meta.IsLeader() {
		return
	}
	for g := 0; g < n.ng; g++ {
		if g == n.g || n.absent(g) {
			continue
		}
		silent := now-n.lastSeen(g) > n.cfg.SuspectTimeout
		switch {
		case silent && !n.groups[g].ownSuspect:
			n.emitOnce(cluster.Record{Kind: cluster.RecSuspect, Stream: g, TS: n.streamCursor(g)}, "suspects-emitted")
		case !silent && n.groups[g].ownSuspect:
			n.emitOnce(cluster.Record{Kind: cluster.RecRevoke, Stream: g}, "revokes-emitted")
		}
	}
}

// deathScan emits (successor's meta leader only) the decision half: once a
// Byzantine quorum of groups holds standing certified suspicions for g, the
// successor certifies GroupDead(g) with the cut — the highest cursor any
// suspecter attested, raised to the successor's own. Local silence is
// re-checked at emission time, so a revival observed after the quorum formed
// aborts the death here instead of racing the revocations over the WAN.
//
// The scan batches its evidence: it first collects every group that is
// death-eligible right now (quorum of standing suspicions and still silent),
// then resolves successors against that whole set. Groups that are eligible
// in the same scan do not count as successors for each other, so
// simultaneous deaths certify in a single suspicion window instead of
// serializing — and two groups whose naive successors are each other (e.g.
// groups 0 and 1 dying together, successor(0)=1, successor(1)=0) do not
// deadlock waiting for the other's death to certify first.
func (n *Node) deathScan(now time.Duration) {
	if !n.meta.IsLeader() {
		return
	}
	eligible := make(map[int]bool)
	for g := 0; g < n.ng; g++ {
		if g == n.g || n.absent(g) {
			continue
		}
		if len(n.groups[g].suspecters) < n.groupQuorum() {
			continue
		}
		if now-n.lastSeen(g) <= n.cfg.SuspectTimeout {
			continue
		}
		eligible[g] = true
	}
	emitted := 0
	for g := 0; g < n.ng; g++ {
		if !eligible[g] || n.effectiveSuccessor(g, eligible) != n.g {
			continue
		}
		cut := n.streamCursor(g)
		for _, c := range n.groups[g].suspecters {
			if c > cut {
				cut = c
			}
		}
		if n.emitOnce(cluster.Record{Kind: cluster.RecDead, Stream: g, TS: cut}, "deaths-emitted") {
			emitted++
		}
	}
	if emitted > 1 {
		n.ctx.Metrics.Inc("death-batches")
	}
}

// effectiveSuccessor is successor() evaluated against the absent set extended
// by the groups found death-eligible in the current scan: the lowest group,
// other than g, that is neither absent nor about to be.
func (n *Node) effectiveSuccessor(g int, eligible map[int]bool) int {
	for h := 0; h < n.ng; h++ {
		if h != g && !n.absent(h) && !eligible[h] {
			return h
		}
	}
	return -1
}

// onSuspectRecord ingests a certified GroupSuspect: origin attests that group
// rec.Stream's stream is silent, carrying origin's cursor for it in TS.
func (n *Node) onSuspectRecord(origin int, rec cluster.Record) {
	g := rec.Stream
	if g < 0 || g >= n.ng || g == origin || n.absent(g) {
		return
	}
	row := &n.groups[g]
	if row.suspecters == nil {
		row.suspecters = make(map[int]uint64)
	}
	if cur, ok := row.suspecters[origin]; !ok || rec.TS > cur {
		if !ok {
			n.ctx.Metrics.Inc("group-suspects")
		}
		row.suspecters[origin] = rec.TS
	}
	if origin == n.g {
		row.ownSuspect = true
	}
}

// onRevokeRecord withdraws origin's standing suspicion for rec.Stream: the
// suspected group produced certified output again before a quorum formed.
// Revocations travel on the same certified streams as suspicions, so a
// receiver that cannot see the revival directly (asymmetric partition) still
// discards the suspicion.
func (n *Node) onRevokeRecord(origin int, rec cluster.Record) {
	g := rec.Stream
	if g < 0 || g >= n.ng || g == origin || n.absent(g) {
		return
	}
	row := &n.groups[g]
	if _, ok := row.suspecters[origin]; ok {
		delete(row.suspecters, origin)
		n.ctx.Metrics.Inc("group-revokes")
	}
	if origin == n.g {
		row.ownSuspect = false
	}
}

// onDeadRecord applies a certified group death. Exactly one death decision
// can take effect per group: the successor rule makes the emitting group
// unique, and a successor's own re-emission (after a meta view change) races
// only itself on its single FIFO stream, so the first record processed wins
// identically on every node; later ones count as dead-dupes.
func (n *Node) onDeadRecord(origin int, rec cluster.Record) {
	g := rec.Stream
	if g < 0 || g >= n.ng || g == origin {
		return
	}
	if n.absent(g) {
		n.ctx.Metrics.Inc("dead-dupes")
		return
	}
	n.applyGroupCut(g, dead, rec.TS)
	n.ctx.Metrics.Inc("group-deaths")
}

// applyGroupCut moves group g to state (dead or departed) with its stream cut
// at `cut` — the shared mechanics of a certified death (onDeadRecord) and a
// certified leave (onEpochRecord) — and fences the unprocessable tail of its
// batch stream. If g is our own group, removed(n.g) now halts proposing and
// record emission so the group cannot extend a fork past the certified cut;
// members keep serving fetches for the agreed prefix.
func (n *Node) applyGroupCut(g int, state groupState, cut uint64) {
	n.groups[g] = groupSt{state: state, cut: cut}
	if g == n.g {
		return
	}
	in := n.streams[g]
	if in == nil {
		return
	}
	// Fence buffered batches at or past the cut — they will never process.
	seqs := make([]uint64, 0, len(in.buffered))
	for s := range in.buffered {
		if s >= cut {
			seqs = append(seqs, s)
		}
	}
	for _, s := range seqs {
		delete(in.buffered, s)
		n.ctx.Metrics.Inc("fenced-batches")
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
		if r <= n.executedSeqOf(s) {
			continue
		}
		id := types.EntryID{GID: s, Seq: r}
		if st := n.entries[id]; st != nil && st.committed {
			continue
		}
		n.rounds.Skip(id)
	}
}

// foldFailover snapshots the failover state machine into a checkpoint (the
// suspicion table and death cuts are protocol state a rejoining node cannot
// re-derive — they came from certified streams it already consumed).
func (n *Node) foldFailover(ck *cluster.Checkpoint) {
	for g, row := range n.groups {
		if row.state != member {
			ck.DeadGroups = append(ck.DeadGroups, g)
			ck.DeadCuts = append(ck.DeadCuts, row.cut)
		}
		switch row.state {
		case standby:
			ck.Standby = append(ck.Standby, g)
		case departed:
			ck.Departed = append(ck.Departed, g)
		}
		for _, o := range sortedKeys(row.suspecters) {
			ck.Suspects = append(ck.Suspects, cluster.SuspectEdge{
				Suspected: g, Origin: o, Cursor: row.suspecters[o],
			})
		}
		if row.ownSuspect {
			ck.OwnSuspects = append(ck.OwnSuspects, g)
		}
	}
	// Membership state (DESIGN.md §11): like deaths and cuts, it was decided
	// by certified records the restoring node already consumed.
	ck.Epoch = n.epoch
	ck.JoinVotes = foldVotes(n.joinVotes)
	ck.LeaveVotes = foldVotes(n.leaveVotes)
	ck.CommitHi = append([]uint64(nil), n.commitHi...)
}

// foldVotes flattens a standing membership-approval table into deterministic
// SuspectEdge records (Suspected = target, Origin = approver).
func foldVotes(votes map[int]map[int]bool) []cluster.SuspectEdge {
	var out []cluster.SuspectEdge
	for _, t := range sortedKeys(votes) {
		for _, o := range sortedKeys(votes[t]) {
			out = append(out, cluster.SuspectEdge{Suspected: t, Origin: o})
		}
	}
	return out
}

// restoreVotes rebuilds a membership-approval table from its folded edges.
func restoreVotes(edges []cluster.SuspectEdge) map[int]map[int]bool {
	votes := make(map[int]map[int]bool)
	for _, e := range edges {
		v := votes[e.Suspected]
		if v == nil {
			v = make(map[int]bool)
			votes[e.Suspected] = v
		}
		v[e.Origin] = true
	}
	return votes
}

// restoreFailover installs a checkpoint's failover and membership state
// wholesale, as fresh rows (validGroups has checked the tables).
func (n *Node) restoreFailover(ck *cluster.Checkpoint) {
	n.groups = make([]groupSt, n.ng)
	for i, g := range ck.DeadGroups {
		n.groups[g] = groupSt{state: dead, cut: ck.DeadCuts[i]}
	}
	for _, g := range ck.Standby {
		n.groups[g] = groupSt{state: standby}
	}
	for _, g := range ck.Departed {
		n.groups[g].state = departed
	}
	for _, e := range ck.Suspects {
		row := &n.groups[e.Suspected]
		if row.suspecters == nil {
			row.suspecters = make(map[int]uint64)
		}
		row.suspecters[e.Origin] = e.Cursor
	}
	for _, g := range ck.OwnSuspects {
		n.groups[g].ownSuspect = true
	}
	n.epoch = ck.Epoch
	n.joinVotes = restoreVotes(ck.JoinVotes)
	n.leaveVotes = restoreVotes(ck.LeaveVotes)
	n.commitHi = make([]uint64, n.ng)
	copy(n.commitHi, ck.CommitHi)
	n.ownCommitHi = 0
	n.epochEmitted = 0
	n.wantJoin = make(map[int]bool)
	n.wantLeave = make(map[int]bool)
	n.leaving = false
}

// validGroups checks an offered checkpoint's group tables before anything
// installs, as an honest fold writes them: ids in range, one cut per
// non-member group, standby and departed groups among those, each group in
// one state, and suspicions only of members, by another group (a vote's
// origin may be its target: the readiness attestation or the farewell).
func (n *Node) validGroups(ck *cluster.Checkpoint) bool {
	in := func(g int) bool { return g >= 0 && g < n.ng }
	state := make([]groupState, n.ng)
	mark := func(groups []int, from, to groupState) bool {
		for _, g := range groups {
			if !in(g) || state[g] != from {
				return false
			}
			state[g] = to
		}
		return true
	}
	if len(ck.DeadCuts) != len(ck.DeadGroups) || !mark(ck.DeadGroups, member, dead) ||
		!mark(ck.Standby, dead, standby) || !mark(ck.Departed, dead, departed) {
		return false
	}
	for _, g := range ck.OwnSuspects {
		if !in(g) || state[g] != member {
			return false
		}
	}
	for i, edges := range [][]cluster.SuspectEdge{ck.Suspects, ck.JoinVotes, ck.LeaveVotes} {
		for _, e := range edges {
			if !in(e.Suspected) || !in(e.Origin) ||
				i == 0 && (e.Origin == e.Suspected || state[e.Suspected] != member) {
				return false
			}
		}
	}
	return true
}
