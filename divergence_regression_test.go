package massbft

import (
	"testing"
	"time"
)

// combinedFaultCluster builds the demo's combined-fault preset: 5% WAN loss,
// 1% LAN loss, 1% duplication, 10% jitter, every recovery knob armed. This
// is the exact environment that historically drove the congestion-collapse
// false-death bug (DESIGN.md §13): unbounded retransmission of in-flight
// copies overwhelmed the 20 Mbps WAN NICs, the victim group's certified
// stream went silent behind multi-second queues, both peer groups certified
// suspicions, and a false GroupDead wedged the run.
func combinedFaultCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
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
			c := combinedFaultCluster(t, seed)
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
		})
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
