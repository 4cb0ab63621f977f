package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// groupAnswers is everything the rest of the node asks the group table.
func groupAnswers(t *groupTable) string {
	out := fmt.Sprintf("quorum=%d epoch=%d %v", t.quorum(), t.epoch, t.members())
	for g := range t.rows {
		out += fmt.Sprintf(" g%d:succ=%d absent=%v removed=%v votes=%d",
			g, t.successor(g, nil), t.absent(g), t.removed(g), t.voteCount(g))
	}
	return out
}

// throughWire folds a table into a checkpoint and sends it through the wire
// codec, as a state transfer does.
func throughWire(t *testing.T, fold func(*cluster.Checkpoint)) *cluster.Checkpoint {
	t.Helper()
	ck := &cluster.Checkpoint{State: statedb.New()}
	fold(ck)
	enc, err := cluster.EncodeEnvelope(&cluster.RejoinResp{C: ck})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cluster.DecodeEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	return dec.(*cluster.RejoinResp).C
}

// TestGroupTableFoldRestore: a table whose own group is in each of the four
// states, beside foreign groups in every state with standing suspicions and
// votes, folds into a checkpoint, goes through the wire codec, and restores:
// the rows come back identical, minus the takeover bookkeeping a fresh row
// drops, and every question asked of the table gets the same answer.
func TestGroupTableFoldRestore(t *testing.T) {
	t.Parallel()
	for _, own := range []groupState{member, standby, dead, departed} {
		ownRow := groupSt{state: own}
		switch own {
		case member, standby:
			ownRow.votes = map[int]bool{0: true, 1: true}
		default:
			ownRow.cut = 11
		}
		tbl := groupTable{self: 0, epoch: 3, rows: []groupSt{
			ownRow,
			{state: member, suspecters: map[int]uint64{0: 5, 2: 7}, votes: map[int]bool{2: true}},
			{state: standby, votes: map[int]bool{1: true, 2: true}},
			{state: dead, cut: 9, takeoverSent: map[types.EntryID]bool{{GID: 1, Seq: 3}: true}},
			{state: departed, cut: 4},
		}}
		want := append([]groupSt(nil), tbl.rows...)
		want[3].takeoverSent = nil
		answers := groupAnswers(&tbl)

		got := throughWire(t, tbl.fold)
		if !tbl.valid(got) {
			t.Fatalf("own %d: an honest fold fails validation: %+v", own, got)
		}
		back := groupTable{self: 0, rows: make([]groupSt, len(tbl.rows))}
		back.restore(got)
		if !reflect.DeepEqual(back.rows, want) {
			t.Fatalf("own %d: rows after restore\n  %+v\nwant\n  %+v", own, back.rows, want)
		}
		if a := groupAnswers(&back); a != answers {
			t.Fatalf("own %d: answers after restore\n  %s\nwant\n  %s", own, a, answers)
		}
	}
}

// TestValidGroupsRejectsForgedTables: each forgery a serving peer could put
// in a checkpoint's group table is refused — out-of-range ids that would
// inflate a count or index past the table, a self-suspicion or one of a
// group that is not a member, a vote on a group in the wrong state, a cut
// list that does not match, a group listed twice or in two states.
func TestValidGroupsRejectsForgedTables(t *testing.T) {
	t.Parallel()
	tbl := groupTable{rows: make([]groupSt, 5)}
	honest := func() *cluster.Checkpoint {
		return &cluster.Checkpoint{
			DeadGroups: []int{2, 3, 4},
			DeadCuts:   []uint64{0, 9, 4},
			Standby:    []int{2},
			Departed:   []int{4},
			Suspects:   []cluster.SuspectEdge{{Suspected: 1, Origin: 0, Cursor: 5}},
			JoinVotes:  []cluster.SuspectEdge{{Suspected: 2, Origin: 0}, {Suspected: 2, Origin: 2}},
			LeaveVotes: []cluster.SuspectEdge{{Suspected: 1, Origin: 1}},
		}
	}
	if !tbl.valid(honest()) {
		t.Fatal("the honest table is refused")
	}
	for name, forge := range map[string]func(ck *cluster.Checkpoint){
		"departed out of range":     func(ck *cluster.Checkpoint) { ck.Departed = append(ck.Departed, 5, 6) },
		"dead group out of range":   func(ck *cluster.Checkpoint) { ck.DeadGroups[0], ck.Standby = -1, nil },
		"departed but not dead":     func(ck *cluster.Checkpoint) { ck.Departed = []int{1} },
		"standby but not dead":      func(ck *cluster.Checkpoint) { ck.Standby = []int{0} },
		"standby and departed":      func(ck *cluster.Checkpoint) { ck.Standby = []int{2, 4} },
		"standby listed twice":      func(ck *cluster.Checkpoint) { ck.Standby = []int{2, 2} },
		"dead group listed twice":   func(ck *cluster.Checkpoint) { ck.DeadGroups[1] = 2 },
		"cuts shorter than deaths":  func(ck *cluster.Checkpoint) { ck.DeadCuts = ck.DeadCuts[:2] },
		"suspicion origin range":    func(ck *cluster.Checkpoint) { ck.Suspects[0].Origin = 7 },
		"suspected out of range":    func(ck *cluster.Checkpoint) { ck.Suspects[0].Suspected = 5 },
		"group suspects itself":     func(ck *cluster.Checkpoint) { ck.Suspects[0].Origin = 1 },
		"suspicion of a dead group": func(ck *cluster.Checkpoint) { ck.Suspects[0].Suspected = 3 },
		"join vote origin range":    func(ck *cluster.Checkpoint) { ck.JoinVotes[0].Origin = 5 },
		"join vote on a member":     func(ck *cluster.Checkpoint) { ck.JoinVotes[0].Suspected = 1 },
		"leave vote target range":   func(ck *cluster.Checkpoint) { ck.LeaveVotes[0].Suspected = -2 },
		"leave vote on a standby":   func(ck *cluster.Checkpoint) { ck.LeaveVotes[0].Suspected = 2 },
		"leave vote on a dead":      func(ck *cluster.Checkpoint) { ck.LeaveVotes[0].Suspected = 3 },
	} {
		ck := honest()
		forge(ck)
		if tbl.valid(ck) {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGroupTableStep drives step one record at a time against each of its
// guards: a guarded record leaves the table as it was and asks the node for
// nothing but the counters listed, and the same record from a legitimate
// origin does change the table, so a guard that went missing shows here even
// where no honest emitter can reach it.
func TestGroupTableStep(t *testing.T) {
	t.Parallel()
	// Four groups seen from group 1: 0 and 1 members, 2 dead at cut 4, 3
	// standby with one join vote; group 0 suspected by group 1. Group 1's
	// suspicion of itself and of the dead group 2 are rows no honest step
	// writes: they let the revocation's guards show.
	base := func() groupTable {
		return groupTable{self: 1, epoch: 2, rows: []groupSt{
			{state: member, suspecters: map[int]uint64{1: 3}},
			{state: member, suspecters: map[int]uint64{1: 1}},
			{state: dead, cut: 4, suspecters: map[int]uint64{1: 2}},
			{state: standby, votes: map[int]bool{0: true}},
		}}
	}
	rec := func(kind int, stream int, ts uint64) cluster.Record {
		return cluster.Record{Kind: kind, Stream: stream, TS: ts}
	}
	epoch := func(op byte, stream int, seq uint64) cluster.Record {
		return cluster.Record{Kind: cluster.RecEpoch, Stream: stream, TS: 7,
			Entry: types.EntryID{GID: int(op), Seq: seq}}
	}
	for _, tc := range []struct {
		name     string
		origin   int
		rec      cluster.Record
		changes  bool
		counters []string
	}{
		{"suspect: out of range", 0, rec(cluster.RecSuspect, 4, 1), false, nil},
		{"suspect: a group of itself", 0, rec(cluster.RecSuspect, 0, 1), false, nil},
		{"suspect: an absent group", 0, rec(cluster.RecSuspect, 2, 9), false, nil},
		{"suspect: legitimate", 1, rec(cluster.RecSuspect, 0, 6), true, []string{}},
		{"revoke: a group of itself", 1, rec(cluster.RecRevoke, 1, 0), false, nil},
		{"revoke: an absent group", 1, rec(cluster.RecRevoke, 2, 0), false, nil},
		{"revoke: legitimate", 1, rec(cluster.RecRevoke, 0, 0), true, []string{"group-revokes"}},
		{"dead: a group of itself", 0, rec(cluster.RecDead, 0, 5), false, nil},
		{"dead: already absent", 0, rec(cluster.RecDead, 2, 9), false, []string{"dead-dupes"}},
		{"dead: legitimate", 1, rec(cluster.RecDead, 0, 5), true, []string{"group-deaths"}},
		{"join: on a member", 0, rec(cluster.RecGroupJoin, 1, 0), false, nil},
		{"join: readiness attestation", 3, rec(cluster.RecGroupJoin, 3, 0), true, []string{"join-votes"}},
		{"join: legitimate", 1, rec(cluster.RecGroupJoin, 3, 0), true, []string{"join-votes"}},
		{"leave: on an absent group", 0, rec(cluster.RecGroupLeave, 2, 0), false, nil},
		{"leave: legitimate", 0, rec(cluster.RecGroupLeave, 1, 0), true, []string{"leave-votes"}},
		{"epoch: by its own target", 3, epoch(cluster.ReconfigJoin, 3, 3), false, nil},
		{"epoch: stale number", 0, epoch(cluster.ReconfigJoin, 3, 2), false, []string{"epoch-dupes"}},
		{"epoch: not the successor", 1, epoch(cluster.ReconfigJoin, 3, 3), false, []string{"epoch-bad-origin"}},
		{"epoch: join of a member", 0, epoch(cluster.ReconfigJoin, 1, 3), false, nil},
		{"epoch: leave of an absent group", 0, epoch(cluster.ReconfigLeave, 3, 3), false, nil},
		{"epoch: legitimate join", 0, epoch(cluster.ReconfigJoin, 3, 3), true, []string{"epoch-switches"}},
		{"epoch: legitimate leave", 0, epoch(cluster.ReconfigLeave, 1, 3), true, []string{"groups-departed", "epoch-switches"}},
	} {
		tbl := base()
		e := tbl.step(tc.origin, tc.rec)
		if changed := !reflect.DeepEqual(tbl, base()); changed != tc.changes {
			t.Errorf("%s: table changed = %v\n  %+v", tc.name, changed, tbl.rows)
		}
		if len(e.counters) != len(tc.counters) || len(tc.counters) > 0 && !reflect.DeepEqual(e.counters, tc.counters) {
			t.Errorf("%s: counters %v, want %v", tc.name, e.counters, tc.counters)
		}
	}
	// A standby origin votes on nothing but its own join.
	tbl := base()
	tbl.rows[2] = groupSt{state: standby}
	if tbl.step(2, cluster.Record{Kind: cluster.RecGroupJoin, Stream: 3}); tbl.rows[3].votes[2] {
		t.Error("join: a standby group's vote on another counted")
	}
}

// TestStandbyBootstrapSuspectsForItself: a standby node bootstraps from
// another group's checkpoint, so the serving group's own suspicions are not
// its group's. Server (0,0) holds a standing suspicion of group 1; node (2,0)
// restores the server's fold through the wire and joins. Its suspicion
// emitter must then certify group 2's own suspicion of the silent group 1 —
// without it the death quorum lacks group 2, and once group 1 speaks again
// group 2 would certify a revocation of a suspicion it never made.
func TestStandbyBootstrapSuspectsForItself(t *testing.T) {
	t.Parallel()
	c, err := cluster.New(membershipCfg([]int{4, 4, 4}, 1, 1), NewNode)
	if err != nil {
		t.Fatal(err)
	}
	server := c.Nodes[keys.NodeID{Group: 0, Index: 0}].(*Node)
	joiner := c.Nodes[keys.NodeID{Group: 2, Index: 0}].(*Node)
	server.apply(server.groups.step(0, cluster.Record{Kind: cluster.RecSuspect, Stream: 1, TS: 5}))
	ck := throughWire(t, server.foldFailover)
	if !joiner.groups.valid(ck) {
		t.Fatal("the server's fold fails validation")
	}
	joiner.restoreFailover(ck)
	joiner.apply(joiner.groups.step(0, cluster.Record{Kind: cluster.RecEpoch, Stream: 2,
		Entry: types.EntryID{GID: int(cluster.ReconfigJoin), Seq: 1}}))
	if joiner.groups.absent(2) {
		t.Fatal("the join did not certify")
	}
	recs := joiner.groups.suspicions(func(g int) bool { return g == 1 }, joiner.streamCursor)
	want := []cluster.Record{{Kind: cluster.RecSuspect, Stream: 1}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("joined node emits %+v, want %+v", recs, want)
	}
}

// TestGroupQuorumIsOverEpochMembers: with five groups of which two are
// standby, the epoch has three members and a majority of them is two. The
// slow-receiver restamp and the rebroadcast gate count that majority too,
// as the first emission of the same stamp does (onTSRecord): two foreign
// stamps re-stamp a foreign entry we lack, and stop rebroadcasting our own.
func TestGroupQuorumIsOverEpochMembers(t *testing.T) {
	t.Parallel()
	n := &Node{g: 0, ng: 5, opts: cluster.PresetMassBFT(),
		cfg:    &cluster.Config{TakeoverTimeout: time.Second},
		groups: groupTable{rows: []groupSt{{}, {}, {}, {state: standby}, {state: standby}}},
	}
	if q := n.groups.quorum(); q != 2 {
		t.Fatalf("quorum %d, want 2", q)
	}
	foreign := &entrySt{stamps: map[int]bool{1: true, 2: true}}
	if rec, ok := n.expectedRecord(types.EntryID{GID: 1, Seq: 4}, foreign); !ok || rec.Kind != cluster.RecTS {
		t.Errorf("slow-receiver restamp: got %+v %v, want a stamp", rec, ok)
	}
	own := &entrySt{content: true, stamps: map[int]bool{1: true, 2: true}}
	if _, patience, _ := n.rebroadcastArmed(types.EntryID{GID: 0, Seq: 4}, own); patience != 0 {
		t.Errorf("rebroadcast armed with a quorum of stamps")
	}
}
