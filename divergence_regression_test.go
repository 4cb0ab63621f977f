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

// combinedFaultCluster builds the demo's combined-fault preset: 5% WAN loss,
// 1% LAN loss, 1% duplication, 10% jitter, every recovery knob armed. This
// is the exact environment that historically drove the congestion-collapse
// false-death bug (DESIGN.md §13): unbounded retransmission of in-flight
// copies overwhelmed the 20 Mbps WAN NICs, the victim group's certified
// stream went silent behind multi-second queues, both peer groups certified
// suspicions, and a false GroupDead wedged the run.
func combinedFaultCluster(t *testing.T, seed int64) (*Cluster, *certWatch) {
	t.Helper()
	c, err := NewCluster(combinedFaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c, watchCerts(c)
}

func combinedFaultConfig(seed int64) Config {
	return Config{
		Groups:             []int{4, 4, 4},
		Workload:           "ycsb-a",
		Seed:               seed,
		Warmup:             time.Second,
		WANDropRate:        0.05,
		LANDropRate:        0.01,
		WANDupRate:         0.01,
		FaultJitter:        0.1,
		ViewChangeTimeout:  400 * time.Millisecond,
		TakeoverTimeout:    400 * time.Millisecond,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 500 * time.Millisecond,
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
			c, w := combinedFaultCluster(t, seed)
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
		})
	}
}

// falseDeathRecipe runs ROADMAP item 1's recipe at seed: the combined-fault
// preset throttled to 2000 txn/s per group, with one follower of every group
// crashed at 5 s and recovered at 10 s, then drained to a verdict. No group
// ever crashes, so every certified death in it is false. The run is watched
// for entries certified twice.
func falseDeathRecipe(t *testing.T, seed int64) (*Cluster, AgreementReport, *certWatch) {
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
	w := watchCerts(c)
	c.Run(time.Second)
	c.Run(19 * time.Second)
	return c, c.DrainToAgreement(500*time.Millisecond, 12*time.Second), w
}

// TestFalseDeathForkSeeds pins a known safety bug (ROADMAP item 1): under
// falseDeathRecipe a live group is certified dead and the ledger forks with
// two entries at one height. The pinned values are the fork's height, the
// counters that lead to it, and the entry certWatch sees certified twice
// (seed 4's fork has none); the fix for item 1 turns these seeds into
// converged runs with zero deaths, and changes this test with it.
func TestFalseDeathForkSeeds(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	for _, tc := range []struct {
		seed                              int64
		height                            uint64
		deaths, localChanges, metaChanges int64
		twice                             string
	}{
		{seed: 4, height: 243, deaths: 12, localChanges: 42, metaChanges: 31},
		{seed: 11, height: 158, deaths: 9, localChanges: 45, metaChanges: 33, twice: "e0,73"},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			t.Parallel()
			c, rep, w := falseDeathRecipe(t, tc.seed)
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
		})
	}
}

// TestPayloadForkSeed pins the second fork kind under falseDeathRecipe
// (ROADMAP item 1): one stream position carries two certified payloads, and
// the groups keep different ones. Both branches seal the same entry under two
// digests, certWatch names the entry, and no group is ever certified dead —
// 1(a)'s invariant (i), not the false death. The fix changes this test with
// it.
func TestPayloadForkSeed(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	const seed, height = 350, 247
	c, rep, w := falseDeathRecipe(t, seed)
	if rep.Verdict != AgreementForked || rep.FirstDivergentHeight != height {
		t.Fatalf("want forked at %d, got: %v", height, rep)
	}
	w.expect(t, "e1,69")
	if len(rep.Branches) < 2 || rep.Branches[0].Entry != rep.Branches[1].Entry ||
		rep.Branches[0].EntryDigest == rep.Branches[1].EntryDigest {
		t.Fatalf("want one entry under two digests at %d, got: %v", height, rep)
	}
	if d := c.Counter("group-deaths"); d != 0 {
		t.Fatalf("group-deaths = %d, want 0", d)
	}
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
		Groups:             []int{4, 4, 4},
		Workload:           "ycsb-a",
		Seed:               6,
		Warmup:             500 * time.Millisecond,
		ViewChangeTimeout:  400 * time.Millisecond,
		TakeoverTimeout:    400 * time.Millisecond,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := watchCerts(c)
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
		Groups:             []int{4, 4},
		Workload:           "ycsb-a",
		Seed:               13,
		Warmup:             500 * time.Millisecond,
		ViewChangeTimeout:  400 * time.Millisecond,
		TakeoverTimeout:    400 * time.Millisecond,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 500 * time.Millisecond,
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
