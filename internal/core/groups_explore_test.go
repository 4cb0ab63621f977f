package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"massbft/internal/cluster"
)

// The group-table explorer: a model of n groups, each holding one groupTable
// (self = its group) and one certified FIFO record stream, driven by the
// table's own emitters and step — no node, no simnet. A schedule is a list of
// actions; every interleaving up to a small depth is tried, then seeded
// random schedules beyond it, and each table is checked after every step:
//
//	(i)   a table agrees with replays of the same per-origin prefixes in
//	      other interleavings on every row's state and cut, and on members()
//	      at each epoch;
//	(ii)  at most one death per group takes effect, from one writer at one cut;
//	(iii) no group has consumed its own stream at or past a death cut
//	      certified against it (ROADMAP item 1 at model level).
//
// A found property violation is shrunk by dropping actions and printed as a
// replayable schedule.

type xKind uint8

const (
	xEmit    xKind = iota // group a runs its emitters onto its stream
	xWork                 // group a appends one record of its own work
	xDeliver              // group a consumes the next record of group b's stream
	xCrash                // group a stops: silent to everyone, inert
)

type xAction struct {
	kind xKind
	a, b int
}

func (x xAction) String() string {
	switch x.kind {
	case xEmit:
		return fmt.Sprintf("emit g%d", x.a)
	case xWork:
		return fmt.Sprintf("work g%d", x.a)
	case xDeliver:
		return fmt.Sprintf("g%d<-g%d", x.a, x.b)
	}
	return fmt.Sprintf("crash g%d", x.a)
}

// xScenario is one shape of the explored world.
type xScenario struct {
	name      string
	groups    int
	standby   []int // standby at genesis
	muted     []int // silent to everyone else from the start, yet acting
	crashed   []int // crashed at genesis
	crashable []int // may crash at any point
	join      int   // the standby group a join op admits, or -1
	leave     int   // the member group a leave op removes, or -1
	work      bool  // groups append records of their own work
	ownCursor bool  // check (iii)
	streamCap int   // records per stream
	// expect lists the properties this scenario is known to violate: each
	// must be found, and no other.
	expect []string
}

// xWorld is the model's state.
type xWorld struct {
	sc        *xScenario
	tables    []groupTable
	stream    [][]cluster.Record
	read      [][]int // read[r][o]: how much of o's stream r consumed
	crashed   []bool
	leaving   []bool
	epochSent []uint64
	history   [][]string     // per table: members() at each epoch
	deaths    map[int]string // group -> "writer/cut" of the death that took effect
}

func newWorld(sc *xScenario) *xWorld {
	n := sc.groups
	w := &xWorld{sc: sc, stream: make([][]cluster.Record, n), read: make([][]int, n),
		crashed: make([]bool, n), leaving: make([]bool, n), epochSent: make([]uint64, n),
		history: make([][]string, n), deaths: make(map[int]string)}
	for g := 0; g < n; g++ {
		w.tables = append(w.tables, w.genesis(g))
		w.read[g] = make([]int, n)
		w.history[g] = []string{fmt.Sprint(w.tables[g].members())}
		w.crashed[g] = slices.Contains(sc.crashed, g)
	}
	return w
}

func (w *xWorld) genesis(self int) groupTable {
	return newGroupTable(self, w.sc.groups, func(g int) bool { return slices.Contains(w.sc.standby, g) })
}

func (w *xWorld) clone() *xWorld {
	c := *w
	c.tables = make([]groupTable, len(w.tables))
	for i, t := range w.tables {
		rows := make([]cluster.GroupRow, len(t.rows))
		for g, row := range t.rows {
			rows[g] = copyRow(row)
		}
		c.tables[i] = groupTable{self: t.self, rows: rows, epoch: t.epoch}
	}
	c.stream = make([][]cluster.Record, len(w.stream))
	for g := range w.stream {
		c.stream[g] = w.stream[g][:len(w.stream[g]):len(w.stream[g])]
	}
	c.read = make([][]int, len(w.read))
	for g := range w.read {
		c.read[g] = append([]int(nil), w.read[g]...)
	}
	c.crashed = append([]bool(nil), w.crashed...)
	c.leaving = append([]bool(nil), w.leaving...)
	c.epochSent = append([]uint64(nil), w.epochSent...)
	c.history = make([][]string, len(w.history))
	for g := range w.history {
		c.history[g] = w.history[g][:len(w.history[g]):len(w.history[g])]
	}
	c.deaths = make(map[int]string, len(w.deaths))
	for g, d := range w.deaths {
		c.deaths[g] = d
	}
	return &c
}

func (w *xWorld) silent(g int) bool { return w.crashed[g] || slices.Contains(w.sc.muted, g) }

// quiet reports whether group h can put nothing more on its stream: crashed,
// halted by its own removal, past its farewell, or full.
func (w *xWorld) quiet(h int) bool {
	return w.crashed[h] || w.tables[h].removed(h) || w.leaving[h] || len(w.stream[h]) >= w.sc.streamCap
}

// emissions is what group h's emitters would queue now: the failover
// emitters, then the membership scan (membershipScan and epochScan's rules),
// minus what is already pending on h's stream (emitOnce).
func (w *xWorld) emissions(h int) []cluster.Record {
	if w.quiet(h) {
		return nil
	}
	t := &w.tables[h]
	cursor := func(g int) uint64 { return uint64(w.read[h][g]) }
	var recs []cluster.Record
	if t.rows[h].State == standby {
		if w.sc.join == h && !t.voted(h, h) {
			recs = append(recs, cluster.Record{Kind: cluster.RecGroupJoin, Stream: h})
		}
	} else {
		recs = append(recs, t.suspicions(w.silent, cursor)...)
		recs = append(recs, t.deaths(w.silent, cursor)...)
		if j := w.sc.join; j >= 0 && t.rows[j].State == standby && !t.voted(j, h) {
			recs = append(recs, cluster.Record{Kind: cluster.RecGroupJoin, Stream: j})
		}
		if l := w.sc.leave; l >= 0 && l != h && !t.absent(l) && !t.voted(l, h) {
			recs = append(recs, cluster.Record{Kind: cluster.RecGroupLeave, Stream: l, TS: cursor(l)})
		}
		if w.sc.leave == h && t.voteCount(h) >= t.quorum() && !t.voted(h, h) {
			recs = append(recs, cluster.Record{Kind: cluster.RecGroupLeave, Stream: h})
		}
		if w.epochSent[h] != t.epoch+1 {
			ready := func(g int) bool {
				return g >= 0 && t.successor(g, nil) == h && t.voteCount(g) >= t.quorum() && t.voted(g, g)
			}
			switch {
			case ready(w.sc.join) && t.rows[w.sc.join].State == standby:
				recs = append(recs, epochRecord(w.sc.join, cluster.ReconfigJoin, cursor(h)+1, t.epoch+1))
			case ready(w.sc.leave) && t.rows[w.sc.leave].State == member:
				recs = append(recs, epochRecord(w.sc.leave, cluster.ReconfigLeave, cursor(w.sc.leave), t.epoch+1))
			}
		}
	}
	var out []cluster.Record
	for _, rec := range recs {
		pending := false
		for _, p := range w.stream[h][w.read[h][h]:] {
			pending = pending || p.Kind == rec.Kind && p.Stream == rec.Stream && p.Entry == rec.Entry
		}
		if !pending {
			out = append(out, rec)
		}
	}
	return out
}

func epochRecord(t int, op byte, ts, seq uint64) cluster.Record {
	rec := cluster.Record{Kind: cluster.RecEpoch, Stream: t, TS: ts}
	rec.Entry.GID, rec.Entry.Seq = int(op), seq
	return rec
}

// fenced reports whether r may not consume o's next record: past o's cut
// in r's table (a group's own stream is never fenced).
func fenced(t *groupTable, r, o, pos int) bool {
	return r != o && t.removed(o) && uint64(pos) >= t.rows[o].Cut
}

// consume steps table t over o's record as processRecords does and returns
// the transition: a standby origin's records other than its own join
// attestation are dropped.
func consume(t *groupTable, o int, rec cluster.Record) cluster.Transition {
	if t.rows[o].State == standby && !(rec.Kind == cluster.RecGroupJoin && rec.Stream == o) {
		return cluster.Transition{}
	}
	switch rec.Kind {
	case cluster.RecSuspect, cluster.RecRevoke, cluster.RecDead,
		cluster.RecGroupJoin, cluster.RecGroupLeave, cluster.RecEpoch:
		return t.step(o, rec)
	}
	return cluster.Transition{}
}

// settled reports whether tr moved the epoch.
func settled(tr cluster.Transition) bool {
	return tr.Kind == cluster.TransAdmit || tr.Kind == cluster.TransDepart
}

// actions lists every action that would change the world.
func (w *xWorld) actions() []xAction {
	var out []xAction
	for h := 0; h < w.sc.groups; h++ {
		if len(w.emissions(h)) > 0 {
			out = append(out, xAction{xEmit, h, 0})
		}
		if w.sc.work && !w.quiet(h) && w.tables[h].rows[h].State == member {
			out = append(out, xAction{xWork, h, 0})
		}
		if slices.Contains(w.sc.crashable, h) && !w.crashed[h] {
			out = append(out, xAction{xCrash, h, 0})
		}
		for o := 0; o < w.sc.groups; o++ {
			if w.canDeliver(h, o) {
				out = append(out, xAction{xDeliver, h, o})
			}
		}
	}
	return out
}

func (w *xWorld) canDeliver(r, o int) bool {
	p := w.read[r][o]
	return !w.crashed[r] && p < len(w.stream[o]) && !fenced(&w.tables[r], r, o, p)
}

// do applies x if it is enabled and returns the property it violates, with a
// description, or "".
func (w *xWorld) do(x xAction) (string, string) {
	switch x.kind {
	case xEmit:
		for _, rec := range w.emissions(x.a) {
			if len(w.stream[x.a]) < w.sc.streamCap {
				w.stream[x.a] = append(w.stream[x.a], rec)
				if rec.Kind == cluster.RecGroupLeave && rec.Stream == x.a {
					w.leaving[x.a] = true
				}
				if rec.Kind == cluster.RecEpoch {
					w.epochSent[x.a] = rec.Entry.Seq
				}
			}
		}
	case xWork:
		if !w.quiet(x.a) && w.tables[x.a].rows[x.a].State == member {
			w.stream[x.a] = append(w.stream[x.a], cluster.Record{Kind: cluster.RecKeepalive, Stream: x.a})
		}
	case xCrash:
		w.crashed[x.a] = true
	case xDeliver:
		r, o := x.a, x.b
		if !w.canDeliver(r, o) {
			return "", ""
		}
		rec := w.stream[o][w.read[r][o]]
		w.read[r][o]++
		t := &w.tables[r]
		tr := consume(t, o, rec)
		if tr.Kind == cluster.TransFarewell && tr.Group == r {
			w.leaving[r] = true
		}
		if settled(tr) {
			w.history[r] = append(w.history[r], fmt.Sprint(t.members()))
		}
		if tr.Kind == cluster.TransDead {
			d := fmt.Sprintf("writer g%d cut %d", o, rec.TS)
			if prev, ok := w.deaths[rec.Stream]; ok && prev != d {
				return "ii", fmt.Sprintf("g%d died twice: %s, then %s at g%d", rec.Stream, prev, d, r)
			}
			w.deaths[rec.Stream] = d
		}
		if p, msg := w.agreement(r); p != "" {
			return p, msg
		}
	}
	if w.sc.ownCursor {
		for _, s := range w.stream {
			for _, rec := range s {
				if rec.Kind == cluster.RecDead && uint64(w.read[rec.Stream][rec.Stream]) > rec.TS {
					return "iii", fmt.Sprintf("g%d consumed its own stream to %d past a certified death cut %d",
						rec.Stream, w.read[rec.Stream][rec.Stream], rec.TS)
				}
			}
		}
	}
	return "", ""
}

// summary is what tables consuming the same per-origin prefixes must agree on.
func summary(t *groupTable, history []string) string {
	var b strings.Builder
	for g, row := range t.rows {
		fmt.Fprintf(&b, "g%d:%d/%d ", g, row.State, row.Cut)
	}
	fmt.Fprintf(&b, "epoch %d %v", t.epoch, history)
	return b.String()
}

// agreement replays r's consumed prefixes origin by origin, ascending and
// descending, into fresh tables; a replay that consumes exactly the same
// prefixes must end in the same summary.
func (w *xWorld) agreement(r int) (string, string) {
	n := w.sc.groups
	for _, desc := range []bool{false, true} {
		t := w.genesis(r)
		history := []string{fmt.Sprint(t.members())}
		same := true
		for i := 0; i < n; i++ {
			o := i
			if desc {
				o = n - 1 - i
			}
			p := 0
			for ; p < w.read[r][o] && !fenced(&t, r, o, p); p++ {
				if settled(consume(&t, o, w.stream[o][p])) {
					history = append(history, fmt.Sprint(t.members()))
				}
			}
			same = same && p == w.read[r][o]
		}
		if !same || agree(&t, &w.tables[r]) && fmt.Sprint(history) == fmt.Sprint(w.history[r]) {
			continue
		}
		order := "ascending"
		if desc {
			order = "descending"
		}
		return "i", fmt.Sprintf("g%d's table %q; the same prefixes replayed origin by origin, %s: %q",
			r, summary(&w.tables[r], w.history[r]), order, summary(&t, history))
	}
	return "", ""
}

// agree reports whether two tables agree on every row's state and cut and on
// the epoch.
func agree(a, b *groupTable) bool {
	for g := range a.rows {
		if a.rows[g].State != b.rows[g].State || a.rows[g].Cut != b.rows[g].Cut {
			return false
		}
	}
	return a.epoch == b.epoch
}

// replay runs a schedule from genesis, skipping disabled actions, and
// returns the first violation.
func replay(sc *xScenario, path []xAction) (string, string) {
	w := newWorld(sc)
	for _, x := range path {
		if p, msg := w.do(x); p != "" {
			return p, msg
		}
	}
	return "", ""
}

// shrink drops runs of actions, longest first, from a violating schedule
// while it still violates the same property.
func shrink(sc *xScenario, prop string, path []xAction) []xAction {
	for size := len(path) / 2; size >= 1; size-- {
		for i := len(path) - size; i >= 0; i-- {
			if i+size > len(path) {
				continue
			}
			cand := append(append([]xAction(nil), path[:i]...), path[i+size:]...)
			if p, _ := replay(sc, cand); p == prop {
				path = cand
			}
		}
	}
	return path
}

// xFound is the first counterexample of one property.
type xFound struct {
	seed int64 // 0: found exhaustively
	path []xAction
}

// explore searches sc: exhaustively to depth, then `seeds` random schedules
// of `length` actions.
func explore(sc *xScenario, depth, seeds, length int) map[string]xFound {
	found := make(map[string]xFound)
	var dfs func(w *xWorld, path []xAction)
	dfs = func(w *xWorld, path []xAction) {
		if len(path) == depth {
			return
		}
		for _, x := range w.actions() {
			c := w.clone()
			next := append(path[:len(path):len(path)], x)
			if p, _ := c.do(x); p != "" {
				if _, ok := found[p]; !ok {
					found[p] = xFound{path: next}
				}
				continue
			}
			dfs(c, next)
		}
	}
	dfs(newWorld(sc), nil)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld(sc)
		var path []xAction
		for len(path) < length {
			acts := w.actions()
			if len(acts) == 0 {
				break
			}
			x := acts[rng.Intn(len(acts))]
			path = append(path, x)
			if p, _ := w.do(x); p != "" {
				if _, ok := found[p]; !ok {
					found[p] = xFound{seed: seed, path: path}
				}
				break
			}
		}
	}
	for p, f := range found {
		f.path = shrink(sc, p, f.path)
		found[p] = f
	}
	return found
}

// TestGroupTableExplore explores the group table's interleavings in six
// scenarios. Each known violation is asserted found and printed; a property
// a scenario is not known to violate must hold on every schedule tried.
func TestGroupTableExplore(t *testing.T) {
	t.Parallel()
	scenarios := []*xScenario{{
		// ROADMAP item 1: a live group everyone else finds silent keeps
		// acting on its own stream, while the death certified against it
		// cuts that stream at the suspecters' cursors — (iii) fails today;
		// item 1(b) makes it hold.
		name: "false-death", groups: 3, muted: []int{2}, join: -1, leave: -1,
		work: true, ownCursor: true, streamCap: 3, expect: []string{"iii"},
	}, {
		// Two groups down from the start; group 0 is everyone's first
		// successor, so the deaths resolve their writers against each other
		// (deathScan's batching).
		name: "double-death", groups: 4, crashed: []int{0, 1}, join: -1, leave: -1,
		streamCap: 4,
	}, {
		// The successor crashes with its death record in flight: the next
		// successor certifies the same death again, a second writer — (ii)
		// fails today (ROADMAP: "The group table's other two
		// counterexamples").
		name: "successor-crash", groups: 4, crashable: []int{0, 1}, join: -1, leave: -1,
		streamCap: 4, expect: []string{"ii"},
	}, {
		// Concurrent membership ops: a standby group joins while a member
		// leaves; one coordinator serializes them by epoch number.
		name: "join-and-leave", groups: 4, standby: []int{3}, join: 3, leave: 2,
		streamCap: 4,
	}, {
		// A standby group joins; its coordinator, group 0, may crash. A
		// table that applies group 0's death before group 0's RecEpoch,
		// which lies below the cut, refuses the epoch as not from the
		// successor, while a table that read them the other way round
		// admitted the group — (i) fails today (ROADMAP: "The group
		// table's other two counterexamples").
		name: "join-coordinator-crash", groups: 4, standby: []int{3}, crashable: []int{0},
		join: 3, leave: -1, streamCap: 4, expect: []string{"i"},
	}, {
		// The same race on a leave.
		name: "leave-coordinator-crash", groups: 4, crashable: []int{0}, join: -1, leave: 3,
		streamCap: 4, expect: []string{"i"},
	}}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			found := explore(sc, 5, 300, 40)
			for _, p := range []string{"i", "ii", "iii"} {
				f, ok := found[p]
				want := slices.Contains(sc.expect, p)
				if ok {
					_, msg := replay(sc, f.path)
					t.Logf("(%s) counterexample (seed %d, shrunk to %d actions): %v\n  %s",
						p, f.seed, len(f.path), f.path, msg)
				}
				if ok != want {
					t.Errorf("(%s) found = %v, want %v", p, ok, want)
				}
			}
		})
	}
}
