package massbft

import (
	"fmt"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/types"
)

// certWatch is a passive checker of ROADMAP item 1(a)'s first invariant: one
// certified payload per (group, stream position). Every certified copy of an
// entry crosses the simulated fabric in a ChunkBatch, BatchFwd, EntryWAN or
// EntryFwd carrying the entry's ID and certificate. The watch remembers the
// first certificate digest sent for each entry and keeps the first copy that
// carries another one.
type certWatch struct {
	digest map[types.EntryID]keys.Digest
	twice  *certTwice
}

// certTwice is one entry sent under a second certified digest: the entry,
// when that copy left, and its link.
type certTwice struct {
	Entry    types.EntryID
	At       time.Duration
	From, To keys.NodeID
}

func (c *certTwice) String() string {
	return fmt.Sprintf("%v certified under a second digest, sent at %v on %v->%v", c.Entry, c.At, c.From, c.To)
}

// watchCerts installs a certWatch as c's send probe, which an untraced
// cluster leaves free. A probe only reads: the run is the one it would be.
func watchCerts(c *Cluster) *certWatch {
	w := &certWatch{digest: map[types.EntryID]keys.Digest{}}
	c.inner.Net.SetSendProbe(w.observe)
	return w
}

func (w *certWatch) observe(s simnet.ProbeSample) {
	var id types.EntryID
	var cert *keys.Certificate
	switch p := s.Payload.(type) {
	case *replication.ChunkBatch:
		id, cert = p.Entry, p.Cert
	case *cluster.BatchFwd:
		id, cert = p.B.Entry, p.B.Cert
	case *cluster.EntryWAN:
		id, cert = p.E.Entry.ID, p.E.Cert
	case *cluster.EntryFwd:
		id, cert = p.E.Entry.ID, p.E.Cert
	}
	if cert == nil || w.twice != nil {
		return
	}
	if d, seen := w.digest[id]; !seen {
		w.digest[id] = cert.Digest
	} else if d != cert.Digest {
		w.twice = &certTwice{Entry: id, At: s.Enqueue, From: s.From, To: s.To}
	}
}

// expect fails t unless the entry w saw certified twice is want ("" for
// none, else as types.EntryID prints it).
func (w *certWatch) expect(t *testing.T, want string) {
	t.Helper()
	got := ""
	if w.twice != nil {
		got = w.twice.Entry.String()
	}
	if got != want {
		t.Errorf("certified twice: got %v, want %q", w.twice, want)
	}
}

// cutWatch is a passive checker of the precondition of ROADMAP item 1(a)'s
// invariant (iii): a node outside group G that applies G's dead or depart cut
// c holds a stream cursor for G at or below c. A cursor past c means the node
// has already processed batches of G that every other node fences. G's own
// members are exempt: a falsely dead group always ran past its own cut, and
// item 1(b) decides that case. The watch counts the violations and keeps the
// first.
type cutWatch struct {
	n     int
	node  keys.NodeID
	first Transition
}

// watchCuts installs a cutWatch as c's transition hook. The hook only reads:
// the run is the one it would be.
func watchCuts(c *Cluster) *cutWatch {
	w := &cutWatch{}
	c.WatchTransitions(func(group, index int, tr Transition) {
		if (tr.Kind == cluster.TransDead || tr.Kind == cluster.TransDepart) && group != tr.Group && tr.Cursor > tr.At {
			if w.n++; w.n == 1 {
				w.node, w.first = keys.NodeID{Group: group, Index: index}, tr
			}
		}
	})
	return w
}

// verdict is "" for a silent watch, else the count and the first violation:
// the node, the group, the cut and the node's cursor.
func (w *cutWatch) verdict() string {
	if w.n == 0 {
		return ""
	}
	return fmt.Sprintf("%d past cut, first %v applied g%d's %v cut %d at cursor %d",
		w.n, w.node, w.first.Group, w.first.Kind, w.first.At, w.first.Cursor)
}

// expect fails t unless w's verdict is want.
func (w *cutWatch) expect(t *testing.T, want string) {
	t.Helper()
	if got := w.verdict(); got != want {
		t.Errorf("cut watch: got %q, want %q", got, want)
	}
}

// combinedFaultCluster builds the demo's combined-fault preset: 5% WAN loss,
// 1% LAN loss, 1% duplication, 10% jitter, every recovery knob armed. This
// is the exact environment that historically drove the congestion-collapse
// false-death bug (DESIGN.md §13): unbounded retransmission of in-flight
// copies overwhelmed the 20 Mbps WAN NICs, the victim group's certified
// stream went silent behind multi-second queues, both peer groups certified
// suspicions, and a false GroupDead wedged the run.
func combinedFaultCluster(t *testing.T, seed int64) (*Cluster, *certWatch, *cutWatch) {
	t.Helper()
	c, err := NewCluster(combinedFaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c, watchCerts(c), watchCuts(c)
}

func combinedFaultConfig(seed int64) Config {
	return Config{
		Groups:            []int{4, 4, 4},
		Workload:          "ycsb-a",
		Seed:              seed,
		Warmup:            time.Second,
		WANDropRate:       0.05,
		LANDropRate:       0.01,
		WANDupRate:        0.01,
		FaultJitter:       0.1,
		ViewChangeTimeout: 400 * time.Millisecond,
		TakeoverTimeout:   400 * time.Millisecond,
		RepairTimeout:     150 * time.Millisecond,
	}
}

// TestCombinedFaultSeedsConverge pins formerly-failing seeds of the
// combined-fault preset as regressions. Before the congestion fixes
// (stream keepalives, progress-gated retransmission, requester-offset
// serving rotations, partition-horizon archive retention) seeds 4 and 5
// ended wedged: a false GroupDead certified against a live group, or a
// laggard stranded beyond every archive window. They must now drain to full
// convergence, with zero certified group deaths.
func TestCombinedFaultSeedsConverge(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	for _, seed := range []int64{4, 5} {
		seed := seed
		t.Run(map[int64]string{4: "seed4", 5: "seed5"}[seed], func(t *testing.T) {
			t.Parallel()
			c, w, cuts := combinedFaultCluster(t, seed)
			c.Run(10 * time.Second)
			rep := c.DrainToAgreement(500*time.Millisecond, 12*time.Second)
			if rep.Verdict != AgreementConverged {
				t.Fatalf("agreement: %v", rep)
			}
			if d := c.Counter("group-deaths"); d != 0 {
				t.Fatalf("certified %d group deaths in a run with no crashed groups", d)
			}
			if c.Counter("forked-detected") != 0 {
				t.Fatalf("forked-detected = %d", c.Counter("forked-detected"))
			}
			w.expect(t, "")
			cuts.expect(t, "")
		})
	}
}

// falseDeathRecipe runs ROADMAP item 1's recipe at seed: the combined-fault
// preset throttled to 2000 txn/s per group, with one follower of every group
// crashed at 5 s and recovered at 10 s, then drained to a verdict. No group
// ever crashes, so every certified death in it is false. The run is watched
// for entries certified twice and for cuts applied past a node's cursor.
func falseDeathRecipe(t *testing.T, seed int64) (*Cluster, AgreementReport, *certWatch, *cutWatch) {
	t.Helper()
	cfg := combinedFaultConfig(seed)
	cfg.GroupRate = []float64{2000, 2000, 2000}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		c.CrashNode(5*time.Second, g, 1)
		c.RecoverNode(10*time.Second, g, 1)
	}
	w, cuts := watchCerts(c), watchCuts(c)
	c.Run(time.Second)
	c.Run(19 * time.Second)
	return c, c.DrainToAgreement(500*time.Millisecond, 12*time.Second), w, cuts
}

// TestFalseDeathForkSeeds pins a known safety bug (ROADMAP item 1): under
// falseDeathRecipe a live group is certified dead and the ledger forks with
// two entries at one height. The pinned values are the fork's height, the
// counters that lead to it, the entry certWatch sees certified twice (none:
// a stream position carries one certified payload) and cutWatch's verdict:
// on seed 10 a node of group 2 applied group 0's death 20 batches behind its
// own cursor, on seed 12 no third party ran past a cut. The fix for item 1
// turns these seeds into converged runs with zero deaths, and changes this
// test with it.
func TestFalseDeathForkSeeds(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	for _, tc := range []struct {
		seed                              int64
		height                            uint64
		deaths, localChanges, metaChanges int64
		twice, pastCut                    string
	}{
		{seed: 10, height: 181, deaths: 9, localChanges: 40, metaChanges: 38,
			pastCut: "3 past cut, first N2,0 applied g0's dead cut 117 at cursor 137"},
		{seed: 12, height: 163, deaths: 9, localChanges: 44, metaChanges: 44},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			t.Parallel()
			c, rep, w, cuts := falseDeathRecipe(t, tc.seed)
			if rep.Verdict != AgreementForked || rep.FirstDivergentHeight != tc.height {
				t.Fatalf("want forked at %d, got: %v", tc.height, rep)
			}
			if len(rep.Branches) < 2 || rep.Branches[0].Entry == rep.Branches[1].Entry {
				t.Fatalf("want two entries at height %d, got: %v", tc.height, rep)
			}
			for name, want := range map[string]int64{
				"group-deaths":       tc.deaths,
				"local-view-changes": tc.localChanges,
				"meta-view-changes":  tc.metaChanges,
			} {
				if got := c.Counter(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			w.expect(t, tc.twice)
			cuts.expect(t, tc.pastCut)
		})
	}
}

// TestPayloadForkSeed is the seed of falseDeathRecipe whose ledger forked on
// one stream position carrying two certified payloads (e1,69 under two
// digests at height 247) while an entry's seq was assigned apart from its
// local PBFT slot. With seq = slot + 1, PBFT's one payload per slot is one
// payload per stream position: the run converges and certWatch is silent.
// (It still certifies false deaths, item 1's defect, which here fork nothing.)
func TestPayloadForkSeed(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	_, rep, w, cuts := falseDeathRecipe(t, 350)
	if rep.Verdict != AgreementConverged {
		t.Fatalf("agreement: %v", rep)
	}
	w.expect(t, "")
	cuts.expect(t, "")
}

// TestPartitionWANHealsAndConverges drives the public partition call: one WAN
// link (groups 0 and 2) is cut for three seconds. Each side certifies a
// suspicion of the other — so the cut was felt — but one link gives a victim
// one suspecter, short of the quorum a death needs, and after the heal every
// node must drain to one ledger.
func TestPartitionWANHealsAndConverges(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c, err := NewCluster(Config{
		Groups:            []int{4, 4, 4},
		Workload:          "ycsb-a",
		Seed:              6,
		Warmup:            500 * time.Millisecond,
		ViewChangeTimeout: 400 * time.Millisecond,
		TakeoverTimeout:   400 * time.Millisecond,
		RepairTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, cuts := watchCerts(c), watchCuts(c)
	c.PartitionWAN(time.Second, 4*time.Second, 0, 2)
	c.Run(6 * time.Second)
	rep := c.DrainToAgreement(500*time.Millisecond, 12*time.Second)
	if rep.Verdict != AgreementConverged {
		t.Fatalf("agreement: %v", rep)
	}
	if c.Counter("group-suspects") == 0 {
		t.Fatal("a three-second partition raised no certified suspicion")
	}
	if d := c.Counter("group-deaths"); d != 0 {
		t.Fatalf("certified %d group deaths with every group alive", d)
	}
	w.expect(t, "")
	cuts.expect(t, "")
}

// TestDrainToAgreementFaultFree exercises the public forensics API on a
// clean run: the report must converge quickly, carry a full node census,
// and leave the divergence counters untouched.
func TestDrainToAgreementFaultFree(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(Config{
		Groups:   []int{3, 3},
		Workload: "ycsb-a",
		Seed:     11,
		Warmup:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	rep := c.DrainToAgreement(500*time.Millisecond, 5*time.Second)
	if rep.Verdict != AgreementConverged {
		t.Fatalf("agreement: %v", rep)
	}
	if len(rep.Nodes) != 6 {
		t.Fatalf("census has %d nodes, want 6", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if !n.Live || n.Behind != 0 || n.Height != rep.MaxHeight {
			t.Fatalf("unexpected node status %+v in converged report", n)
		}
	}
	if rep.FirstDivergentHeight != 0 || len(rep.Laggards) != 0 || len(rep.Branches) != 0 {
		t.Fatalf("converged report carries divergence fields: %+v", rep)
	}
	if c.Counter("forked-detected") != 0 || c.Counter("wedged-detected") != 0 {
		t.Fatalf("divergence counters moved on a clean run: forked=%d wedged=%d",
			c.Counter("forked-detected"), c.Counter("wedged-detected"))
	}
}

// TestAgreementReportSeesCrashedNodes checks the census and liveness
// semantics: a crashed node appears in the report as !Live and is never
// judged, so the survivors still classify as converged.
func TestAgreementReportSeesCrashedNodes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c, err := NewCluster(Config{
		Groups:            []int{4, 4},
		Workload:          "ycsb-a",
		Seed:              13,
		Warmup:            500 * time.Millisecond,
		ViewChangeTimeout: 400 * time.Millisecond,
		TakeoverTimeout:   400 * time.Millisecond,
		RepairTimeout:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.CrashNode(time.Second, 1, 2)
	c.Run(4 * time.Second)
	rep := c.DrainToAgreement(500*time.Millisecond, 6*time.Second)
	if rep.Verdict != AgreementConverged {
		t.Fatalf("agreement with one crashed follower: %v", rep)
	}
	if len(rep.Nodes) != 8 {
		t.Fatalf("census has %d nodes, want 8", len(rep.Nodes))
	}
	down := 0
	for _, n := range rep.Nodes {
		if !n.Live {
			down++
			if n.Group != 1 || n.Index != 2 {
				t.Fatalf("wrong node reported down: %+v", n)
			}
		}
	}
	if down != 1 {
		t.Fatalf("census reports %d down nodes, want 1", down)
	}
}

// TestSaturatedJoinStalls pins a known liveness defect (ROADMAP item 22): a
// standby group that joins at saturation (the default MaxBatch 400) wedges.
// On a 4×4 MassBFT cluster, group 3 is admitted from 1 s; the run lasts 3 s,
// then drains for up to 3 s. Each joining node asks an active group for a
// multi-megabyte checkpoint that takes longer than the 200 ms default
// RejoinTimeout over the 20 Mbps WAN, so it asks again and again, and the
// copies flood the serving uplinks that chunk replication shares: 51 served
// transfers for 4 joining nodes, and the joined group stuck at height 78
// while the rest reach 167. The fix turns this run into a converged one with
// about one transfer per joining node, and flips this test with it.
func TestSaturatedJoinStalls(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c, err := NewCluster(Config{Groups: []int{4, 4, 4, 4}, StandbyGroups: 1,
		TakeoverTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Reconfigure(time.Second, ReconfigJoin, 3)
	c.Run(3 * time.Second)
	rep := c.DrainToAgreement(500*time.Millisecond, 3*time.Second)
	const joining = 4
	if served := c.Counter("rejoin-served"); served < 10*joining {
		t.Errorf("rejoin-served = %d, want at least %d: the joining nodes no longer re-ask for their checkpoint", served, 10*joining)
	}
	if rep.Verdict != AgreementWedged {
		t.Errorf("want wedged, got: %v", rep)
	}
}
