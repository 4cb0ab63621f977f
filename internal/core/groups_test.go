package core

import (
	"fmt"
	"reflect"
	"testing"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// tableNode returns node (0,0) of a freshly built five-group cluster; nothing
// runs, the tests below only drive its group table.
func tableNode(t *testing.T) *Node {
	t.Helper()
	cfg := smallCfg()
	cfg.GroupSizes = []int{1, 1, 1, 1, 1}
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	return c.Nodes[keys.NodeID{Group: 0, Index: 0}].(*Node)
}

// groupAnswers is everything the rest of the node asks the group table.
func groupAnswers(n *Node) string {
	epoch, members := n.EpochInfo()
	out := fmt.Sprintf("members=%d quorum=%d epoch=%d %v", n.memberCount(), n.groupQuorum(), epoch, members)
	for g := 0; g < n.ng; g++ {
		out += fmt.Sprintf(" g%d:succ=%d down=%v absent=%v removed=%v",
			g, n.successor(g), n.GroupDown(g), n.absent(g), n.removed(g))
	}
	return out
}

// TestGroupTableFoldRestore: a node whose own group is in each of the four
// states, beside foreign groups in every state with standing and own
// suspicions, folds its table into a checkpoint, sends it through the wire
// codec, and restores it: the rows come back identical, minus the takeover
// bookkeeping a fresh row drops, and every question asked of the table gets
// the same answer.
func TestGroupTableFoldRestore(t *testing.T) {
	t.Parallel()
	for _, own := range []groupState{member, standby, dead, departed} {
		n := tableNode(t)
		ownCut := uint64(0)
		if own == dead || own == departed {
			ownCut = 11
		}
		n.groups = []groupSt{
			{state: own, cut: ownCut},
			{state: member, suspecters: map[int]uint64{0: 5, 2: 7}, ownSuspect: true},
			{state: standby},
			{state: dead, cut: 9, takeoverSent: map[types.EntryID]bool{{GID: 1, Seq: 3}: true}},
			{state: departed, cut: 4},
		}
		want := append([]groupSt(nil), n.groups...)
		want[3].takeoverSent = nil
		answers := groupAnswers(n)

		ck := &cluster.Checkpoint{State: statedb.New()}
		n.foldFailover(ck)
		enc, err := cluster.EncodeEnvelope(&cluster.RejoinResp{C: ck})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := cluster.DecodeEnvelope(enc)
		if err != nil {
			t.Fatal(err)
		}
		got := dec.(*cluster.RejoinResp).C
		if !n.validGroups(got) {
			t.Fatalf("own %d: an honest fold fails validation: %+v", own, got)
		}
		n.groups = make([]groupSt, n.ng)
		n.restoreFailover(got)
		if !reflect.DeepEqual(n.groups, want) {
			t.Fatalf("own %d: rows after restore\n  %+v\nwant\n  %+v", own, n.groups, want)
		}
		if a := groupAnswers(n); a != answers {
			t.Fatalf("own %d: answers after restore\n  %s\nwant\n  %s", own, a, answers)
		}
	}
}

// TestValidGroupsRejectsForgedTables: each forgery a serving peer could put
// in a checkpoint's group tables is refused — out-of-range ids that would
// inflate a count or index past the table, a self-suspicion or one of a
// group that is not a member, a cut list that does not match, a group
// listed twice or in two states.
func TestValidGroupsRejectsForgedTables(t *testing.T) {
	t.Parallel()
	n := tableNode(t)
	honest := func() *cluster.Checkpoint {
		return &cluster.Checkpoint{
			DeadGroups:  []int{2, 3, 4},
			DeadCuts:    []uint64{0, 9, 4},
			Standby:     []int{2},
			Departed:    []int{4},
			Suspects:    []cluster.SuspectEdge{{Suspected: 1, Origin: 0, Cursor: 5}},
			OwnSuspects: []int{1},
			JoinVotes:   []cluster.SuspectEdge{{Suspected: 2, Origin: 0}, {Suspected: 2, Origin: 2}},
			LeaveVotes:  []cluster.SuspectEdge{{Suspected: 1, Origin: 1}},
		}
	}
	if !n.validGroups(honest()) {
		t.Fatal("the honest table is refused")
	}
	for name, forge := range map[string]func(ck *cluster.Checkpoint){
		"departed out of range":      func(ck *cluster.Checkpoint) { ck.Departed = append(ck.Departed, 5, 6) },
		"dead group out of range":    func(ck *cluster.Checkpoint) { ck.DeadGroups[0], ck.Standby = -1, nil },
		"departed but not dead":      func(ck *cluster.Checkpoint) { ck.Departed = []int{1} },
		"standby but not dead":       func(ck *cluster.Checkpoint) { ck.Standby = []int{0} },
		"standby and departed":       func(ck *cluster.Checkpoint) { ck.Standby = []int{2, 4} },
		"standby listed twice":       func(ck *cluster.Checkpoint) { ck.Standby = []int{2, 2} },
		"dead group listed twice":    func(ck *cluster.Checkpoint) { ck.DeadGroups[1] = 2 },
		"cuts shorter than deaths":   func(ck *cluster.Checkpoint) { ck.DeadCuts = ck.DeadCuts[:2] },
		"suspicion origin range":     func(ck *cluster.Checkpoint) { ck.Suspects[0].Origin = 7 },
		"suspected out of range":     func(ck *cluster.Checkpoint) { ck.Suspects[0].Suspected = 5 },
		"group suspects itself":      func(ck *cluster.Checkpoint) { ck.Suspects[0].Origin = 1 },
		"suspicion of a dead group":  func(ck *cluster.Checkpoint) { ck.Suspects[0].Suspected = 3 },
		"own suspicion of standby":   func(ck *cluster.Checkpoint) { ck.OwnSuspects = []int{2} },
		"own suspicion out of range": func(ck *cluster.Checkpoint) { ck.OwnSuspects = []int{9} },
		"join vote origin range":     func(ck *cluster.Checkpoint) { ck.JoinVotes[0].Origin = 5 },
		"leave vote target range":    func(ck *cluster.Checkpoint) { ck.LeaveVotes[0].Suspected = -2 },
	} {
		ck := honest()
		forge(ck)
		if n.validGroups(ck) {
			t.Errorf("%s: accepted", name)
		}
	}
}
