package core

import (
	"cmp"
	"slices"

	"massbft/internal/cluster"
)

// This file holds a node's certified view of every group (DESIGN.md §6, "The
// group table") and the one function that changes it. step consumes a
// certified failover or membership record and returns the transition it made,
// which the node carries out and reports; it reads nothing but the table and
// the record — no clock, stream, orderer or metric — so the table is a pure
// function of the records consumed, which is what lets every node replay it
// identically and lets a test explore it without a cluster. restore installs
// a checkpoint's table wholesale; nothing else assigns a row's state, cut,
// suspecters or votes, or the epoch.

// A row's state: where a group stands in this node's certified view
// (cluster.GroupState).
const (
	member   = cluster.GroupMember
	standby  = cluster.GroupStandby
	dead     = cluster.GroupDead
	departed = cluster.GroupDeparted
)

// groupTable is one node's row per group, seen from group self, and the
// count of certified epoch switches. A row is certified state only, its
// lists ascending by origin; every transition assigns a fresh row, dropping
// the suspicions and votes of the old state.
type groupTable struct {
	self  int
	rows  []cluster.GroupRow
	epoch uint64
}

// newGroupTable returns group self's table at genesis: every group a member
// but the standby ones.
func newGroupTable(self, n int, standbyAtGenesis func(int) bool) groupTable {
	t := groupTable{self: self, rows: make([]cluster.GroupRow, n)}
	for g := range t.rows {
		if standbyAtGenesis(g) {
			t.rows[g].State = standby
		}
	}
	return t
}

// absent reports whether group g is anything but a live member: its clock is
// frozen, its rounds skipped, and it is never a successor.
func (t *groupTable) absent(g int) bool { return t.rows[g].State != member }

// removed reports whether group g's stream was cut by a certified death or
// leave: batches at or past the cut are fenced.
func (t *groupTable) removed(g int) bool {
	return t.rows[g].State == dead || t.rows[g].State == departed
}

// inEpoch reports whether group g counts in the quorum denominator: death
// does not change membership; a standby or departed group is not in it.
func (t *groupTable) inEpoch(g int) bool { return t.rows[g].State == member || t.rows[g].State == dead }

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
	for _, o := range t.rows[g].Votes {
		if o != g && t.inEpoch(o) {
			c++
		}
	}
	return c
}

// step consumes one certified failover or membership record from origin's
// stream and returns the transition it made (TransNone if none). The
// transitions (DESIGN.md §6 tabulates them):
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
func (t *groupTable) step(origin int, rec cluster.Record) cluster.Transition {
	g := rec.Stream
	if g < 0 || g >= len(t.rows) {
		return cluster.Transition{}
	}
	tr := cluster.Transition{Group: g, Origin: origin, At: rec.TS}
	row := &t.rows[g]
	switch rec.Kind {
	case cluster.RecSuspect:
		if g == origin || t.absent(g) {
			break
		}
		switch i, ok := suspicion(row, origin); {
		case !ok:
			tr.Kind = cluster.TransSuspect
			row.Suspecters = slices.Insert(row.Suspecters, i, cluster.Suspicion{Origin: origin, Cursor: rec.TS})
		case rec.TS > row.Suspecters[i].Cursor:
			tr.Kind = cluster.TransSuspectRaised
			row.Suspecters[i].Cursor = rec.TS
		}
	case cluster.RecRevoke:
		if g == origin || t.absent(g) {
			break
		}
		if i, ok := suspicion(row, origin); ok {
			row.Suspecters = slices.Delete(row.Suspecters, i, i+1)
			tr.Kind = cluster.TransRevoke
		}
	case cluster.RecDead:
		switch {
		case g == origin:
		case t.absent(g):
			tr.Kind = cluster.TransDeadDupe
		default:
			*row = cluster.GroupRow{State: dead, Cut: rec.TS}
			tr.Kind = cluster.TransDead
		}
	case cluster.RecGroupJoin:
		// Standby groups have no vote, only their own readiness attestation.
		if row.State == standby && (origin == g || t.rows[origin].State != standby) && t.vote(g, origin) {
			tr.Kind = cluster.TransJoinVote
		}
	case cluster.RecGroupLeave:
		if t.absent(g) || !t.vote(g, origin) {
			break
		}
		tr.Kind = cluster.TransLeaveVote
		if origin == g {
			// The farewell: the group goes silent so its stream ends here,
			// exactly where the cut will land.
			tr.Kind = cluster.TransFarewell
		}
	case cluster.RecEpoch:
		switch {
		case origin == g:
		case rec.Entry.Seq != t.epoch+1:
			tr.Kind = cluster.TransEpochDupe
		case origin != t.successor(g, nil):
			tr.Kind = cluster.TransEpochBadOrigin
		case byte(rec.Entry.GID) == cluster.ReconfigJoin && row.State == standby:
			*row = cluster.GroupRow{State: member}
			tr.Kind = cluster.TransAdmit
			t.epoch++
		case byte(rec.Entry.GID) == cluster.ReconfigLeave && !t.absent(g):
			// From here on g is fenced, skipped and frozen like a dead group,
			// but it no longer counts in the quorum denominator.
			*row = cluster.GroupRow{State: departed, Cut: rec.TS}
			tr.Kind = cluster.TransDepart
			t.epoch++
		}
	}
	tr.Epoch = t.epoch
	return tr
}

// vote records origin's standing vote on g and reports whether it is new.
func (t *groupTable) vote(g, origin int) bool {
	row := &t.rows[g]
	i, ok := slices.BinarySearch(row.Votes, origin)
	if !ok {
		row.Votes = slices.Insert(row.Votes, i, origin)
	}
	return !ok
}

// voted reports whether origin's vote on g stands.
func (t *groupTable) voted(g, origin int) bool {
	_, ok := slices.BinarySearch(t.rows[g].Votes, origin)
	return ok
}

// suspicion returns where origin's suspicion stands in row's list, or where
// it would go, and whether it stands.
func suspicion(row *cluster.GroupRow, origin int) (int, bool) {
	return slices.BinarySearchFunc(row.Suspecters, origin, func(s cluster.Suspicion, o int) int { return cmp.Compare(s.Origin, o) })
}

// suspicions is the suspicion half of the failover emitters: a RecSuspect
// for every member whose stream is silent and that our group does not yet
// suspect, and a RecRevoke withdrawing our suspicion of one that spoke again.
// The standing suspicion is read from our own certified stream's records, so
// a leader change keeps it and the new leader inherits the revocation duty.
func (t *groupTable) suspicions(silent func(int) bool, cursor func(int) uint64) []cluster.Record {
	var out []cluster.Record
	for g := range t.rows {
		if g == t.self || t.absent(g) {
			continue
		}
		_, own := suspicion(&t.rows[g], t.self)
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
		if g != t.self && !t.absent(g) && len(row.Suspecters) >= t.quorum() && silent(g) {
			eligible[g] = true
		}
	}
	var out []cluster.Record
	for g, row := range t.rows {
		if !eligible[g] || t.successor(g, eligible) != t.self {
			continue
		}
		cut := cursor(g)
		for _, s := range row.Suspecters {
			cut = max(cut, s.Cursor)
		}
		out = append(out, cluster.Record{Kind: cluster.RecDead, Stream: g, TS: cut})
	}
	return out
}

// fold writes the table into a checkpoint, one part per group: it was
// decided by certified records the restoring node already consumed and
// cannot re-derive. The caller fills in the parts' stream cursors.
func (t *groupTable) fold(ck *cluster.Checkpoint) {
	ck.Groups = make([]cluster.CheckpointGroup, len(t.rows))
	for g, row := range t.rows {
		ck.Groups[g].Row = copyRow(row)
	}
	ck.Epoch = t.epoch
}

// restore installs a checkpoint's table wholesale (valid has checked it).
func (t *groupTable) restore(ck *cluster.Checkpoint) {
	t.rows = make([]cluster.GroupRow, len(ck.Groups))
	for g := range ck.Groups {
		t.rows[g] = copyRow(ck.Groups[g].Row)
	}
	t.epoch = ck.Epoch
}

// copyRow returns a row that shares no list with row, an empty list nil as
// the wire decodes it: simnet hands a checkpoint over by pointer, so a
// table's later step must never write into a list another table or a
// checkpoint holds.
func copyRow(row cluster.GroupRow) cluster.GroupRow {
	row.Suspecters = append([]cluster.Suspicion(nil), row.Suspecters...)
	row.Votes = append([]int(nil), row.Votes...)
	return row
}

// valid checks an offered checkpoint's table before anything installs, as
// step and fold write it: one row per group of the layout, each in a known
// state; a cut only on a dead or departed row; suspicions only of a member
// and by another group, votes only on a member or a standby row (a vote's
// origin may be its row's group: the readiness attestation or the farewell);
// every origin in the layout, each list strictly ascending.
func (t *groupTable) valid(ck *cluster.Checkpoint) bool {
	if len(ck.Groups) != len(t.rows) {
		return false
	}
	for g := range ck.Groups {
		row := &ck.Groups[g].Row
		live := row.State == member || row.State == standby
		if row.State > departed || live && row.Cut != 0 ||
			row.State != member && len(row.Suspecters) > 0 || !live && len(row.Votes) > 0 {
			return false
		}
		prev := -1
		for _, s := range row.Suspecters {
			if s.Origin <= prev || s.Origin >= len(t.rows) || s.Origin == g {
				return false
			}
			prev = s.Origin
		}
		prev = -1
		for _, o := range row.Votes {
			if o <= prev || o >= len(t.rows) {
				return false
			}
			prev = o
		}
	}
	return true
}
