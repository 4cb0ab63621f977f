package core

import (
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
)

// membershipCfg is the base environment for the certified-membership tests:
// a MassBFT cluster with the failover machinery armed, the last `standby`
// groups provisioned but inactive, and a SuspectTimeout long enough that no
// group death certifies unless a schedule wants one.
func membershipCfg(sizes []int, standby int, seed int64) cluster.Config {
	cfg := cluster.Config{
		GroupSizes:        sizes,
		Opts:              cluster.PresetMassBFT(),
		Workload:          "ycsb-a",
		Seed:              seed,
		MaxBatch:          10,
		BatchTimeout:      10 * time.Millisecond,
		PipelineDepth:     4,
		RunFor:            5 * time.Second,
		Warmup:            300 * time.Millisecond,
		TakeoverTimeout:   200 * time.Millisecond,
		ViewChangeTimeout: 300 * time.Millisecond,
		SuspectTimeout:    3 * time.Second,
		RepairTimeout:     100 * time.Millisecond,
		RejoinTimeout:     300 * time.Millisecond,
		TrustAll:          true,
		StandbyGroups:     standby,
	}
	return cfg
}

// vantage is the node the membership tests read progress from: the metrics
// observer is in the highest group, a standby or leaving one here.
var vantage = keys.NodeID{Group: 0, Index: 0}

// assertEpochEverywhere checks that every node outside skip reports the same
// certified epoch and member set.
func assertEpochEverywhere(t *testing.T, c *cluster.Cluster, want uint64, wantActive []int, skip map[int]bool) {
	t.Helper()
	for g, size := range c.Cfg.GroupSizes {
		if skip[g] {
			continue
		}
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			ep, act := c.Nodes[id].(*Node).EpochInfo()
			if ep != want {
				t.Fatalf("node %v at epoch %d, want %d: %s", id, ep, want, c.Metrics.Summary())
			}
			if len(act) != len(wantActive) {
				t.Fatalf("node %v members %v, want %v", id, act, wantActive)
			}
			for i := range act {
				if act[i] != wantActive[i] {
					t.Fatalf("node %v members %v, want %v", id, act, wantActive)
				}
			}
		}
	}
}

// TestMembershipJoinReduced certifies a standby group's join on a reduced
// schedule fast enough for the -race -short CI shard: group 2
// starts provisioned-but-inactive, the admin trigger lands at 800ms, the
// group bootstraps via cross-group checkpoint transfer, an epoch switch
// certifies, and afterwards group 2 proposes and executes like any member.
func TestMembershipJoinReduced(t *testing.T) {
	t.Parallel()
	cfg := membershipCfg([]int{3, 3, 3}, 1, 61)
	cfg.RunFor = 4 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleReconfigure(800*time.Millisecond, cluster.ReconfigJoin, 2)
	c.RunUntil(cfg.RunFor)
	drainLive(c, nil)

	m := c.Metrics
	if m.Counter("standby-bootstraps") == 0 {
		t.Fatalf("no standby node started the bootstrap transfer: %s", m.Summary())
	}
	if m.Counter("standby-bootstrapped") == 0 {
		t.Fatalf("no standby node completed the bootstrap transfer: %s", m.Summary())
	}
	if m.Counter("join-ready-emitted") == 0 {
		t.Fatalf("joining group never certified its readiness attestation: %s", m.Summary())
	}
	if m.Counter("groups-joined") == 0 {
		t.Fatalf("no node of the standby group activated: %s", m.Summary())
	}
	assertEpochEverywhere(t, c, 1, []int{0, 1, 2}, nil)
	obs := c.Nodes[vantage].(*Node)
	if seqs := obs.ExecutedSeqs(); seqs[2] == 0 {
		t.Fatalf("joined group never executed an entry of its own (%v): %s", seqs, m.Summary())
	}
	if m.Counter("ts-conflicts") != 0 {
		t.Fatalf("conflicting stamps certified across the join: %s", m.Summary())
	}
	assertLiveSafety(t, c, nil)
}

// TestMembershipLeaveReduced certifies an active group's departure: the
// trigger raises leave votes in the other groups, the leaving group emits its
// certified farewell and goes silent, the coordinator certifies the epoch cut
// exactly at the farewell, and the survivors keep committing with the
// departed group fenced like a certified-dead one — but out of the quorum
// denominator. Reduced schedule, always runs (the -race -short CI shard).
func TestMembershipLeaveReduced(t *testing.T) {
	t.Parallel()
	cfg := membershipCfg([]int{3, 3, 3}, 0, 62)
	cfg.RunFor = 4 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleReconfigure(800*time.Millisecond, cluster.ReconfigLeave, 2)
	c.RunUntil(2 * time.Second)
	obs := c.Nodes[vantage].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(cfg.RunFor)
	skip := map[int]bool{2: true}
	drainLive(c, skip)

	m := c.Metrics
	if m.Counter("farewells-emitted") == 0 {
		t.Fatalf("leaving group never certified its farewell: %s", m.Summary())
	}
	if m.Counter("groups-departed") == 0 {
		t.Fatalf("no node processed the departure: %s", m.Summary())
	}
	// Every node — including the departed group's own members, which apply
	// the cut and then halt — agrees on the post-leave membership.
	assertEpochEverywhere(t, c, 1, []int{0, 1}, nil)
	end := obs.ExecutedSeqs()
	for g := 0; g < 2; g++ {
		if end[g] <= mid[g] {
			t.Fatalf("surviving group %d made no progress after the departure (mid=%v end=%v): %s",
				g, mid, end, m.Summary())
		}
	}
	if d := m.Counter("deaths-emitted"); d != 0 {
		t.Fatalf("certified leave also certified %d group deaths: %s", d, m.Summary())
	}
	assertLiveSafety(t, c, skip)
}

// membershipFingerprint condenses one join+leave-under-load run into the
// values two identical runs must reproduce bit-for-bit.
type membershipFingerprint struct {
	epoch     uint64
	switches  int64
	committed int64
	clientOK  int64
	resubmits int64
	gaveUp    int64
	height    uint64
	head      [6]byte
	state     [32]byte
}

// runMembershipSchedule executes the acceptance schedule: a four-group
// cluster (group 3 standby) under gateway client load, group 3 joins at 1s
// and group 2 leaves at 2.5s, both mid-run. A node of group 1 is down
// 1.2s–2.4s, spanning the join: a graceful leave drains so cleanly that no
// client ever strands on it, so the crashed node is what forces first-attempt
// deliveries to vanish and clients to resubmit across the epoch boundary.
func runMembershipSchedule(t *testing.T) (*cluster.Cluster, membershipFingerprint) {
	t.Helper()
	cfg := membershipCfg([]int{3, 3, 3, 3}, 1, 63)
	cfg.Gateway = cluster.GatewayConfig{SimClients: 16}
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleReconfigure(1*time.Second, cluster.ReconfigJoin, 3)
	c.ScheduleReconfigure(2500*time.Millisecond, cluster.ReconfigLeave, 2)
	c.ScheduleNodeCrash(1200*time.Millisecond, keys.NodeID{Group: 1, Index: 2})
	c.ScheduleNodeRecover(2400*time.Millisecond, keys.NodeID{Group: 1, Index: 2})
	c.RunUntil(cfg.RunFor)
	drainLive(c, map[int]bool{2: true})

	obs := c.Nodes[vantage].(*Node)
	var fp membershipFingerprint
	fp.epoch, _ = obs.EpochInfo()
	fp.switches = c.Metrics.Counter("epoch-switches")
	fp.committed = c.Metrics.Committed()
	fp.clientOK = c.Metrics.ClientCommitted
	fp.resubmits = c.Metrics.ClientResubmitted
	fp.gaveUp = c.Metrics.ClientGaveup
	fp.height = obs.Ledger().Height()
	head := obs.Ledger().Head()
	copy(fp.head[:], head[:6])
	fp.state = c.StateHash(vantage)
	return c, fp
}

// TestMembershipJoinLeaveUnderLoad is the acceptance scenario for certified
// dynamic membership: one group joins AND one leaves mid-run while gateway
// clients drive closed-loop load. No fork may form, clients must converge
// through the epoch boundary by transparent resubmission, every node must
// agree on the final epoch and member set, and the whole schedule must be
// bit-identical across reruns (the second run is TestMembershipDeterministic).
func TestMembershipJoinLeaveUnderLoad(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c, fp := runMembershipSchedule(t)
	m := c.Metrics
	if fp.clientOK == 0 {
		t.Fatalf("no client request earned a reply certificate: %s", m.Summary())
	}
	if fp.epoch != 2 {
		t.Fatalf("observer at epoch %d after join+leave, want 2: %s", fp.epoch, m.Summary())
	}
	// All continuing and joined nodes agree on the final view. The departed
	// group's members halt the moment their removal applies, so depending on
	// which epoch switch certified first they may have stopped at epoch 1;
	// they are asserted separately below.
	assertEpochEverywhere(t, c, 2, []int{0, 1, 3}, map[int]bool{2: true})
	for j := 0; j < c.Cfg.GroupSizes[2]; j++ {
		id := keys.NodeID{Group: 2, Index: j}
		if ep, _ := c.Nodes[id].(*Node).EpochInfo(); ep == 0 {
			t.Fatalf("departed node %v never advanced past genesis epoch: %s", id, m.Summary())
		}
	}
	if m.Counter("groups-joined") == 0 || m.Counter("groups-departed") == 0 {
		t.Fatalf("join or leave never applied: %s", m.Summary())
	}
	// First-attempt deliveries to the crashed group-1 node vanish; their
	// clients must time out, rotate (skipping certified-down groups), and
	// still converge.
	if fp.resubmits == 0 {
		t.Fatalf("no client resubmitted across the membership change: %s", m.Summary())
	}
	if m.Counter("ts-conflicts") != 0 {
		t.Fatalf("conflicting stamps certified across epoch switches: %s", m.Summary())
	}
	obs := c.Nodes[vantage].(*Node)
	if seqs := obs.ExecutedSeqs(); seqs[3] == 0 {
		t.Fatalf("joined group never executed an entry of its own (%v): %s", seqs, m.Summary())
	}
	assertLiveSafety(t, c, map[int]bool{2: true})
}

// TestMembershipDeterministic reruns the full join+leave-under-load schedule
// and requires a bit-identical outcome: epoch switches, client certificates,
// resubmissions, ledger head, and state hash all equal. Dynamic membership —
// bootstrap transfer, vote quorums, epoch cuts, resubmission jitter — runs
// entirely on the emulator event loop and adds no nondeterminism.
func TestMembershipDeterministic(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c, a := runMembershipSchedule(t)
	_, b := runMembershipSchedule(t)
	if a != b {
		t.Fatalf("membership runs diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
	if a.clientOK == 0 || a.height == 0 || a.epoch != 2 {
		t.Fatalf("degenerate fingerprint: %+v", a)
	}
	assertCensus(t, c, "62c9676eab0fbd7b")
}
