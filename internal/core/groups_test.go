package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/pbft"
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
// the rows come back identical, and every question asked of the table gets
// the same answer.
func TestGroupTableFoldRestore(t *testing.T) {
	t.Parallel()
	for _, own := range []cluster.GroupState{member, standby, dead, departed} {
		ownRow := cluster.GroupRow{State: own}
		switch own {
		case member, standby:
			ownRow.Votes = []int{0, 1}
		default:
			ownRow.Cut = 11
		}
		tbl := groupTable{self: 0, epoch: 3, rows: []cluster.GroupRow{
			ownRow,
			{State: member, Suspecters: []cluster.Suspicion{{Origin: 0, Cursor: 5}, {Origin: 2, Cursor: 7}}, Votes: []int{2}},
			{State: standby, Votes: []int{1, 2}},
			{State: dead, Cut: 9},
			{State: departed, Cut: 4},
		}}
		want := slices.Clone(tbl.rows)
		answers := groupAnswers(&tbl)

		got := throughWire(t, tbl.fold)
		if !tbl.valid(got) {
			t.Fatalf("own %d: an honest fold fails validation: %+v", own, got)
		}
		back := groupTable{self: 0, rows: make([]cluster.GroupRow, len(tbl.rows))}
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
// in a checkpoint's group table is refused — a row count that is not the
// layout's, a state out of range, a cut on a live row, an origin out of range
// that would inflate a count or index past the table, a list not strictly
// ascending whose repeated origin would count twice toward a quorum, a
// self-suspicion or one of a group that is not a member, a vote on a dead or
// departed row.
func TestValidGroupsRejectsForgedTables(t *testing.T) {
	t.Parallel()
	tbl := groupTable{rows: make([]cluster.GroupRow, 5)}
	honest := func() *cluster.Checkpoint {
		return &cluster.Checkpoint{Groups: []cluster.CheckpointGroup{
			{},
			{Row: cluster.GroupRow{Suspecters: []cluster.Suspicion{{Origin: 0, Cursor: 5}, {Origin: 2, Cursor: 3}}, Votes: []int{1}}},
			{Row: cluster.GroupRow{State: standby, Votes: []int{0, 2}}},
			{Row: cluster.GroupRow{State: dead, Cut: 9}},
			{Row: cluster.GroupRow{State: departed, Cut: 4}},
		}}
	}
	if !tbl.valid(honest()) {
		t.Fatal("the honest table is refused")
	}
	row := func(ck *cluster.Checkpoint, g int) *cluster.GroupRow { return &ck.Groups[g].Row }
	suspects := func(ck *cluster.Checkpoint) []cluster.Suspicion { return row(ck, 1).Suspecters }
	for name, forge := range map[string]func(ck *cluster.Checkpoint){
		"a row short":                 func(ck *cluster.Checkpoint) { ck.Groups = ck.Groups[:4] },
		"a row past the layout":       func(ck *cluster.Checkpoint) { ck.Groups = append(ck.Groups, ck.Groups[4]) },
		"state out of range":          func(ck *cluster.Checkpoint) { row(ck, 0).State = departed + 1 },
		"cut on a member":             func(ck *cluster.Checkpoint) { row(ck, 1).Cut = 3 },
		"cut on a standby":            func(ck *cluster.Checkpoint) { row(ck, 2).Cut = 3 },
		"suspicion origin range":      func(ck *cluster.Checkpoint) { suspects(ck)[1].Origin = 7 },
		"suspicion origin negative":   func(ck *cluster.Checkpoint) { suspects(ck)[0].Origin = -1 },
		"suspicion origin twice":      func(ck *cluster.Checkpoint) { suspects(ck)[1].Origin = 0 },
		"suspicion origins unsorted":  func(ck *cluster.Checkpoint) { suspects(ck)[0], suspects(ck)[1] = suspects(ck)[1], suspects(ck)[0] },
		"group suspects itself":       func(ck *cluster.Checkpoint) { suspects(ck)[0].Origin = 1 },
		"suspicion of a standby":      func(ck *cluster.Checkpoint) { row(ck, 2).Suspecters = suspects(ck) },
		"suspicion of a dead group":   func(ck *cluster.Checkpoint) { row(ck, 3).Suspecters = suspects(ck) },
		"suspicion of a departed one": func(ck *cluster.Checkpoint) { row(ck, 4).Suspecters = suspects(ck) },
		"vote origin range":           func(ck *cluster.Checkpoint) { row(ck, 2).Votes[1] = 5 },
		"vote origin negative":        func(ck *cluster.Checkpoint) { row(ck, 2).Votes[0] = -1 },
		"vote origin twice":           func(ck *cluster.Checkpoint) { row(ck, 2).Votes[1] = 0 },
		"vote origins unsorted":       func(ck *cluster.Checkpoint) { row(ck, 2).Votes = []int{2, 0} },
		"vote on a dead group":        func(ck *cluster.Checkpoint) { row(ck, 3).Votes = []int{1} },
		"vote on a departed group":    func(ck *cluster.Checkpoint) { row(ck, 4).Votes = []int{1} },
	} {
		ck := honest()
		forge(ck)
		if tbl.valid(ck) {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGroupTableStep drives step one record at a time against each of its
// guards: a guarded record leaves the table as it was and makes no transition
// but the one listed, and the same record from a legitimate origin does
// change the table, so a guard that went missing shows here even where no
// honest emitter can reach it.
func TestGroupTableStep(t *testing.T) {
	t.Parallel()
	// Four groups seen from group 1: 0 and 1 members, 2 dead at cut 4, 3
	// standby with one join vote; group 0 suspected by group 1, which also
	// votes it out. Group 1's
	// suspicion of itself and of the dead group 2 are rows no honest step
	// writes: they let the revocation's guards show.
	base := func() groupTable {
		return groupTable{self: 1, epoch: 2, rows: []cluster.GroupRow{
			{State: member, Suspecters: []cluster.Suspicion{{Origin: 1, Cursor: 3}}, Votes: []int{1}},
			{State: member, Suspecters: []cluster.Suspicion{{Origin: 1, Cursor: 1}}},
			{State: dead, Cut: 4, Suspecters: []cluster.Suspicion{{Origin: 1, Cursor: 2}}},
			{State: standby, Votes: []int{0}},
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
		name    string
		origin  int
		rec     cluster.Record
		changes bool
		kind    cluster.TransitionKind
	}{
		{"suspect: out of range", 0, rec(cluster.RecSuspect, 4, 1), false, cluster.TransNone},
		{"suspect: a group of itself", 0, rec(cluster.RecSuspect, 0, 1), false, cluster.TransNone},
		{"suspect: an absent group", 0, rec(cluster.RecSuspect, 2, 9), false, cluster.TransNone},
		{"suspect: a lower cursor", 1, rec(cluster.RecSuspect, 0, 2), false, cluster.TransNone},
		{"suspect: legitimate", 1, rec(cluster.RecSuspect, 0, 6), true, cluster.TransSuspectRaised},
		{"suspect: a new suspicion", 0, rec(cluster.RecSuspect, 1, 2), true, cluster.TransSuspect},
		{"revoke: a group of itself", 1, rec(cluster.RecRevoke, 1, 0), false, cluster.TransNone},
		{"revoke: an absent group", 1, rec(cluster.RecRevoke, 2, 0), false, cluster.TransNone},
		{"revoke: legitimate", 1, rec(cluster.RecRevoke, 0, 0), true, cluster.TransRevoke},
		{"dead: a group of itself", 0, rec(cluster.RecDead, 0, 5), false, cluster.TransNone},
		{"dead: already absent", 0, rec(cluster.RecDead, 2, 9), false, cluster.TransDeadDupe},
		{"dead: legitimate", 1, rec(cluster.RecDead, 0, 5), true, cluster.TransDead},
		{"join: on a member", 0, rec(cluster.RecGroupJoin, 1, 0), false, cluster.TransNone},
		{"join: a repeated vote", 0, rec(cluster.RecGroupJoin, 3, 0), false, cluster.TransNone},
		{"join: readiness attestation", 3, rec(cluster.RecGroupJoin, 3, 0), true, cluster.TransJoinVote},
		{"join: legitimate", 1, rec(cluster.RecGroupJoin, 3, 0), true, cluster.TransJoinVote},
		{"leave: on an absent group", 0, rec(cluster.RecGroupLeave, 2, 0), false, cluster.TransNone},
		{"leave: a repeated vote", 1, rec(cluster.RecGroupLeave, 0, 0), false, cluster.TransNone},
		{"leave: legitimate", 0, rec(cluster.RecGroupLeave, 1, 0), true, cluster.TransLeaveVote},
		{"leave: the farewell", 1, rec(cluster.RecGroupLeave, 1, 0), true, cluster.TransFarewell},
		{"epoch: by its own target", 3, epoch(cluster.ReconfigJoin, 3, 3), false, cluster.TransNone},
		{"epoch: stale number", 0, epoch(cluster.ReconfigJoin, 3, 2), false, cluster.TransEpochDupe},
		{"epoch: not the successor", 1, epoch(cluster.ReconfigJoin, 3, 3), false, cluster.TransEpochBadOrigin},
		{"epoch: join of a member", 0, epoch(cluster.ReconfigJoin, 1, 3), false, cluster.TransNone},
		{"epoch: leave of an absent group", 0, epoch(cluster.ReconfigLeave, 3, 3), false, cluster.TransNone},
		{"epoch: legitimate join", 0, epoch(cluster.ReconfigJoin, 3, 3), true, cluster.TransAdmit},
		{"epoch: legitimate leave", 0, epoch(cluster.ReconfigLeave, 1, 3), true, cluster.TransDepart},
	} {
		tbl := base()
		tr := tbl.step(tc.origin, tc.rec)
		if changed := !reflect.DeepEqual(tbl, base()); changed != tc.changes {
			t.Errorf("%s: table changed = %v\n  %+v", tc.name, changed, tbl.rows)
		}
		if tr.Kind != tc.kind {
			t.Errorf("%s: transition %v, want %v", tc.name, tr.Kind, tc.kind)
		}
		if tr.Kind != cluster.TransNone && (tr.Group != tc.rec.Stream || tr.Origin != tc.origin || tr.At != tc.rec.TS || tr.Epoch != tbl.epoch) {
			t.Errorf("%s: transition %v does not name the record's group, origin, TS and the table's epoch %d", tc.name, tr, tbl.epoch)
		}
	}
	// The sink counts one departure as a departure and an epoch switch.
	n := &Node{ctx: &cluster.NodeCtx{Process: &cluster.Process{Metrics: metrics.NewCollector()}}}
	tbl := base()
	n.transition(tbl.step(0, epoch(cluster.ReconfigLeave, 1, 3)), nil)
	if got, want := n.ctx.Metrics.Counts, (metrics.Counts{GroupsDeparted: 1, EpochSwitches: 1}); got != want {
		t.Errorf("a departure counts %+v, want %+v", got, want)
	}
	// A standby origin votes on nothing but its own join.
	tbl = base()
	tbl.rows[2] = cluster.GroupRow{State: standby}
	if tbl.step(2, cluster.Record{Kind: cluster.RecGroupJoin, Stream: 3}); tbl.voted(3, 2) {
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
	ck := throughWire(t, server.groups.fold)
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

// TestCheckpointInstallsAlikeOnBothFabrics: a live node's checkpoint, folded
// while its table holds a certified death, a standing suspicion and a
// standing leave vote, installs the same state on a fresh node of its group
// whether it is handed over by pointer, as simnet does, or goes through the
// wire codec, as TCP does: stream rows, table rows, epoch, both PBFT
// instances and every answer of the table. The pointer install copies the
// rows, and so does the fold: writing into the installed table's lists, or
// the server's, leaves the others as they were.
func TestCheckpointInstallsAlikeOnBothFabrics(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.TakeoverTimeout = 300 * time.Millisecond // suspicion after 1.2 s of silence
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	// Group 2 dies with groups 0 and 1 suspecting it; group 0 then votes
	// group 1 out, and suspects it once it falls silent. Neither completes:
	// the dead group 2 can neither vote nor suspect.
	c.ScheduleGroupCrash(time.Second, 2)
	c.ScheduleReconfigure(3500*time.Millisecond, cluster.ReconfigLeave, 1)
	c.ScheduleGroupCrash(4*time.Second, 1)
	server := c.Nodes[keys.NodeID{Group: 0, Index: 1}].(*Node)
	tbl := &server.groups
	for at := 4 * time.Second; tbl.rows[2].State != dead || len(tbl.rows[1].Suspecters) == 0 || len(tbl.rows[1].Votes) == 0; at += 100 * time.Millisecond {
		if at > 10*time.Second {
			t.Fatalf("the table never held a death, a suspicion and a vote: %+v", tbl.rows)
		}
		c.RunUntil(at)
	}
	ck := server.foldCheckpoint(0)
	ck.State = server.DB().Clone()
	wire := throughCodec(t, &cluster.RejoinResp{C: ck}).(*cluster.RejoinResp)

	install := func(resp *cluster.RejoinResp) *Node {
		fresh, err := cluster.New(cfg, NewNode)
		if err != nil {
			t.Fatal(err)
		}
		n := fresh.Nodes[keys.NodeID{Group: 0, Index: 2}].(*Node)
		n.ctx.Net = &recordingEndpoint{Endpoint: n.ctx.Net}
		n.rejoining = true
		n.onRejoinResp(server.id, resp)
		if n.rejoining {
			t.Fatalf("the checkpoint did not install: %s", fresh.Metrics.Summary())
		}
		return n
	}
	direct, decoded := install(&cluster.RejoinResp{C: ck}), install(wire)
	if !reflect.DeepEqual(direct.streams, decoded.streams) {
		t.Errorf("stream rows differ:\n  %+v\n  %+v", direct.streams, decoded.streams)
	}
	if !reflect.DeepEqual(direct.groups, decoded.groups) || !sameRows(decoded.groups.rows, tbl.rows) {
		t.Errorf("tables differ:\n  direct %+v\n  wire   %+v\n  server %+v", direct.groups, decoded.groups, tbl.rows)
	}
	if a, b := groupAnswers(&direct.groups), groupAnswers(&decoded.groups); a != b {
		t.Errorf("answers differ:\n  %s\n  %s", a, b)
	}
	for _, pair := range [][2]*pbft.Instance{{direct.local, decoded.local}, {direct.meta, decoded.meta}} {
		if a, b := pair[0].Export(), pair[1].Export(); !reflect.DeepEqual(a, b) {
			t.Errorf("PBFT instances differ:\n  %+v\n  %+v", a, b)
		}
	}

	scribble := func(rows []cluster.GroupRow) {
		for g := range rows {
			for i := range rows[g].Suspecters {
				rows[g].Suspecters[i].Cursor += 100
			}
			for i := range rows[g].Votes {
				rows[g].Votes[i] += 100
			}
		}
	}
	scribble(direct.groups.rows)
	for g := range tbl.rows {
		if !sameRows(tbl.rows[g:g+1], decoded.groups.rows[g:g+1]) || !reflect.DeepEqual(ck.Groups[g].Row, decoded.groups.rows[g]) {
			t.Errorf("writing into the installed row %d changed the server's or the checkpoint's:\n  server %+v\n  ck     %+v", g, tbl.rows[g], ck.Groups[g].Row)
		}
	}
	scribble(tbl.rows)
	for g := range ck.Groups {
		if !reflect.DeepEqual(ck.Groups[g].Row, decoded.groups.rows[g]) {
			t.Errorf("writing into the server's row %d changed the checkpoint's: %+v", g, ck.Groups[g].Row)
		}
	}
}

// sameRows compares two tables' rows, an empty list equal to a nil one.
func sameRows(a, b []cluster.GroupRow) bool {
	return slices.EqualFunc(a, b, func(x, y cluster.GroupRow) bool {
		return x.State == y.State && x.Cut == y.Cut && slices.Equal(x.Suspecters, y.Suspecters) && slices.Equal(x.Votes, y.Votes)
	})
}

// TestGroupQuorumIsOverEpochMembers: with five groups of which two are
// standby, the epoch has three members and a majority of them is two. The
// slow-receiver restamp and the rebroadcast gate count that majority too,
// as the first emission of the same stamp does (onTSRecord): two foreign
// stamps re-stamp a foreign entry we lack, and stop rebroadcasting our own.
func TestGroupQuorumIsOverEpochMembers(t *testing.T) {
	t.Parallel()
	n := &Node{g: 0, ng: 5, opts: cluster.PresetMassBFT(),
		cfg:     &cluster.Config{TakeoverTimeout: time.Second},
		groups:  groupTable{rows: []cluster.GroupRow{{}, {}, {}, {State: standby}, {State: standby}}},
		streams: make([]streamSt, 5),
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
