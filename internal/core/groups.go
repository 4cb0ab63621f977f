package core

import (
	"massbft/internal/cluster"
	"massbft/internal/metrics"
)

// This file holds a node's certified view of every group (DESIGN.md §6, "The
// group table") and the one function that changes it. step consumes a
// certified failover or membership record, counts its transitions and returns
// the effect the node must carry out; it reads nothing but the table and the
// record — no clock, stream, orderer or metric — so the table is a pure
// function of the records consumed, which is what lets every node replay it
// identically and lets a test explore it without a cluster. restore installs
// a checkpoint's table wholesale; nothing else assigns a row's state, cut,
// suspecters or votes, or the epoch.

// groupState is where a group stands in this node's certified view.
type groupState uint8

const (
	member   groupState = iota // in the epoch and live
	standby                    // provisioned, not yet joined
	dead                       // certified dead at cut; still counts in quorums
	departed                   // removed by a certified leave at cut
)

// groupSt is one row of the group table: certified state only. Every
// transition assigns a fresh row, dropping the suspicions and votes of the
// old state.
type groupSt struct {
	state groupState
	cut   uint64 // where a dead or departed group's stream ends
	// suspecters maps each origin group holding a standing certified
	// suspicion of this group to the stream cursor it attested.
	suspecters map[int]uint64
	// votes holds the origins of the standing certified membership votes on
	// this group: join votes on a standby row, leave votes on a member row.
	// An origin equal to the row's own group is the readiness attestation or
	// the farewell.
	votes map[int]bool
}

// groupTable is one node's row per group, seen from group self, and the
// count of certified epoch switches.
type groupTable struct {
	self  int
	rows  []groupSt
	epoch uint64
}

// newGroupTable returns group self's table at genesis: every group a member
// but the standby ones.
func newGroupTable(self, n int, standbyAtGenesis func(int) bool) groupTable {
	t := groupTable{self: self, rows: make([]groupSt, n)}
	for g := range t.rows {
		if standbyAtGenesis(g) {
			t.rows[g].state = standby
		}
	}
	return t
}

// absent reports whether group g is anything but a live member: its clock is
// frozen, its rounds skipped, and it is never a successor.
func (t *groupTable) absent(g int) bool { return t.rows[g].state != member }

// removed reports whether group g's stream was cut by a certified death or
// leave: batches at or past the cut are fenced.
func (t *groupTable) removed(g int) bool {
	return t.rows[g].state == dead || t.rows[g].state == departed
}

// inEpoch reports whether group g counts in the quorum denominator: death
// does not change membership; a standby or departed group is not in it.
func (t *groupTable) inEpoch(g int) bool { return t.rows[g].state == member || t.rows[g].state == dead }

// members returns the current epoch's groups in ascending order.
func (t *groupTable) members() []int {
	var out []int
	for g := range t.rows {
		if t.inEpoch(g) {
			out = append(out, g)
		}
	}
	return out
}

// quorum is the Byzantine quorum over the current epoch's groups — the
// majority every group-counting rule uses.
func (t *groupTable) quorum() int {
	c := 0
	for g := range t.rows {
		if t.inEpoch(g) {
			c++
		}
	}
	return (c-1)/2 + 1
}

// successor returns the designated successor for group g: the lowest group
// other than g that is neither absent nor in except. While the live majority
// of the cluster is connected this is unique, which is what makes a death or
// an epoch switch single-writer.
func (t *groupTable) successor(g int, except map[int]bool) int {
	for h := range t.rows {
		if h != g && !t.absent(h) && !except[h] {
			return h
		}
	}
	return -1
}

// voteCount counts the standing votes on g from groups other than g itself,
// restricted to the current epoch (a departed approver's vote must not count
// toward a later quorum).
func (t *groupTable) voteCount(g int) int {
	c := 0
	for o := range t.rows[g].votes {
		if o != g && t.inEpoch(o) {
			c++
		}
	}
	return c
}

// effect is what a step asks of the node beyond the table.
type effect struct {
	g       int    // the record's target group
	at      uint64 // g's stream cut (fence) or join boundary (admit)
	fence   bool   // g's stream was cut at `at`
	admit   bool   // g joined with boundary `at`
	second  byte   // cluster.ReconfigJoin or ReconfigLeave: second that op on g
	leaving bool   // our own group's farewell certified
	settled bool   // the epoch moved for g: its node-local intents are done
}

// step consumes one certified failover or membership record from origin's
// stream and counts into c. The transitions (DESIGN.md §6 tabulates them):
//
//   - RecSuspect: origin attests g silent at cursor TS (kept at its highest);
//   - RecRevoke: origin withdraws its suspicion — g spoke again;
//   - RecDead: g is dead at cut TS; the first death processed wins, and it
//     wins identically on every node while the successor rule keeps its
//     writer unique (a writer's re-emission races only itself on its FIFO
//     stream; a successor that crashes with its death in flight gets a second
//     writer — TestGroupTableExplore's successor-crash);
//   - RecGroupJoin / RecGroupLeave: a vote on a standby / member group;
//   - RecEpoch: the coordinator (g's successor as of this stream position)
//     admits or removes g, once per epoch number.
func (t *groupTable) step(origin int, rec cluster.Record, c *metrics.Counts) (e effect) {
	g := rec.Stream
	if g < 0 || g >= len(t.rows) {
		return e
	}
	e.g = g
	row := &t.rows[g]
	switch rec.Kind {
	case cluster.RecSuspect:
		if g == origin || t.absent(g) {
			return e
		}
		cur, ok := row.suspecters[origin]
		if !ok {
			c.GroupSuspects++
		}
		if !ok || rec.TS > cur {
			if row.suspecters == nil {
				row.suspecters = make(map[int]uint64)
			}
			row.suspecters[origin] = rec.TS
		}
	case cluster.RecRevoke:
		if g == origin || t.absent(g) {
			return e
		}
		if _, ok := row.suspecters[origin]; ok {
			delete(row.suspecters, origin)
			c.GroupRevokes++
		}
	case cluster.RecDead:
		if g == origin {
			return e
		}
		if t.absent(g) {
			c.DeadDupes++
			return e
		}
		*row = groupSt{state: dead, cut: rec.TS}
		e.fence, e.at = true, rec.TS
		c.GroupDeaths++
	case cluster.RecGroupJoin:
		// Standby groups have no vote, only their own readiness attestation.
		if row.state != standby || origin != g && t.rows[origin].state == standby {
			return e
		}
		t.vote(g, origin, &c.JoinVotes)
		if origin != g && g != t.self {
			e.second = cluster.ReconfigJoin
		}
	case cluster.RecGroupLeave:
		if t.absent(g) {
			return e
		}
		t.vote(g, origin, &c.LeaveVotes)
		switch {
		case origin == g:
			// The farewell: our own group goes silent so the stream ends here,
			// exactly where the cut will land.
			e.leaving = g == t.self
		case g != t.self:
			e.second = cluster.ReconfigLeave
		}
	case cluster.RecEpoch:
		if origin == g {
			return e
		}
		if rec.Entry.Seq != t.epoch+1 {
			c.EpochDupes++
			return e
		}
		if origin != t.successor(g, nil) {
			c.EpochBadOrigin++
			return e
		}
		switch {
		case byte(rec.Entry.GID) == cluster.ReconfigJoin && row.state == standby:
			*row = groupSt{state: member}
			e.admit, e.at = true, rec.TS
		case byte(rec.Entry.GID) == cluster.ReconfigLeave && !t.absent(g):
			// From here on g is fenced, skipped and frozen like a dead group,
			// but it no longer counts in the quorum denominator.
			*row = groupSt{state: departed, cut: rec.TS}
			e.fence, e.at = true, rec.TS
			c.GroupsDeparted++
		default:
			return e
		}
		t.epoch++
		e.settled = true
		c.EpochSwitches++
	}
	return e
}

// vote records origin's standing vote on g, counting a new one.
func (t *groupTable) vote(g, origin int, counter *int64) {
	row := &t.rows[g]
	if row.votes[origin] {
		return
	}
	if row.votes == nil {
		row.votes = make(map[int]bool)
	}
	row.votes[origin] = true
	*counter++
}

// suspicions is the suspicion half of the failover emitters: a RecSuspect
// for every member whose stream is silent and that our group does not yet
// suspect, and a RecRevoke withdrawing our suspicion of one that spoke again.
// The standing suspicion is read from our own certified stream's records, so
// a leader change keeps it and the new leader inherits the revocation duty.
func (t *groupTable) suspicions(silent func(int) bool, cursor func(int) uint64) []cluster.Record {
	var out []cluster.Record
	for g, row := range t.rows {
		if g == t.self || t.absent(g) {
			continue
		}
		_, own := row.suspecters[t.self]
		switch s := silent(g); {
		case s && !own:
			out = append(out, cluster.Record{Kind: cluster.RecSuspect, Stream: g, TS: cursor(g)})
		case !s && own:
			out = append(out, cluster.Record{Kind: cluster.RecRevoke, Stream: g})
		}
	}
	return out
}

// deaths is the decision half: a RecDead for every group that a quorum of
// groups suspects, that is still silent here, and whose successor we are. The
// cut is the highest cursor any suspecter attested, raised to our own.
// Silence is re-checked at emission, so a revival observed after the quorum
// formed aborts the death instead of racing the revocations over the WAN.
//
// Evidence is batched: groups eligible together do not count as successors
// for each other, so simultaneous deaths certify in one suspicion window
// instead of serializing — and two groups whose naive successors are each
// other (groups 0 and 1 dying together) do not wait on each other forever.
func (t *groupTable) deaths(silent func(int) bool, cursor func(int) uint64) []cluster.Record {
	eligible := make(map[int]bool)
	for g, row := range t.rows {
		if g != t.self && !t.absent(g) && len(row.suspecters) >= t.quorum() && silent(g) {
			eligible[g] = true
		}
	}
	var out []cluster.Record
	for g, row := range t.rows {
		if !eligible[g] || t.successor(g, eligible) != t.self {
			continue
		}
		cut := cursor(g)
		for _, c := range row.suspecters {
			if c > cut {
				cut = c
			}
		}
		out = append(out, cluster.Record{Kind: cluster.RecDead, Stream: g, TS: cut})
	}
	return out
}

// fold writes the table into a checkpoint: it was decided by certified
// records the restoring node already consumed and cannot re-derive.
func (t *groupTable) fold(ck *cluster.Checkpoint) {
	for g, row := range t.rows {
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
			ck.Suspects = append(ck.Suspects, cluster.SuspectEdge{Suspected: g, Origin: o, Cursor: row.suspecters[o]})
		}
		for _, o := range sortedKeys(row.votes) {
			edge := cluster.SuspectEdge{Suspected: g, Origin: o}
			if row.state == standby {
				ck.JoinVotes = append(ck.JoinVotes, edge)
			} else {
				ck.LeaveVotes = append(ck.LeaveVotes, edge)
			}
		}
	}
	ck.Epoch = t.epoch
}

// restore installs a checkpoint's table wholesale, as fresh rows (valid has
// checked it).
func (t *groupTable) restore(ck *cluster.Checkpoint) {
	t.rows = make([]groupSt, len(t.rows))
	for i, g := range ck.DeadGroups {
		t.rows[g] = groupSt{state: dead, cut: ck.DeadCuts[i]}
	}
	for _, g := range ck.Standby {
		t.rows[g] = groupSt{state: standby}
	}
	for _, g := range ck.Departed {
		t.rows[g].state = departed
	}
	for _, e := range ck.Suspects {
		row := &t.rows[e.Suspected]
		if row.suspecters == nil {
			row.suspecters = make(map[int]uint64)
		}
		row.suspecters[e.Origin] = e.Cursor
	}
	for _, edges := range [][]cluster.SuspectEdge{ck.JoinVotes, ck.LeaveVotes} {
		for _, e := range edges {
			row := &t.rows[e.Suspected]
			if row.votes == nil {
				row.votes = make(map[int]bool)
			}
			row.votes[e.Origin] = true
		}
	}
	t.epoch = ck.Epoch
}

// valid checks an offered checkpoint's table before anything installs, as
// an honest fold writes it: ids in range, one cut per non-member group,
// standby and departed groups among those, each group in one state,
// suspicions only of members and by another group, join votes only on
// standby groups and leave votes only on members (a vote's origin may be its
// target: the readiness attestation or the farewell).
func (t *groupTable) valid(ck *cluster.Checkpoint) bool {
	in := func(g int) bool { return g >= 0 && g < len(t.rows) }
	state := make([]groupState, len(t.rows))
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
	for i, edges := range [][]cluster.SuspectEdge{ck.Suspects, ck.JoinVotes, ck.LeaveVotes} {
		target := []groupState{member, standby, member}[i]
		for _, e := range edges {
			if !in(e.Suspected) || !in(e.Origin) || state[e.Suspected] != target ||
				i == 0 && e.Origin == e.Suspected {
				return false
			}
		}
	}
	return true
}
