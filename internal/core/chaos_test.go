package core

import (
	"math/rand"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/forensics"
	"massbft/internal/keys"
)

// chaosCfg is the lossy-WAN chaos environment: 5% WAN message loss plus
// duplication, LAN loss, latency jitter, and every recovery knob armed.
func chaosCfg(opts cluster.Options, seed int64) cluster.Config {
	return cluster.Config{
		GroupSizes:         []int{4, 4, 4},
		Opts:               opts,
		Workload:           "ycsb-a",
		Seed:               seed,
		MaxBatch:           20,
		BatchTimeout:       10 * time.Millisecond,
		PipelineDepth:      8,
		RunFor:             8 * time.Second,
		Warmup:             500 * time.Millisecond,
		TakeoverTimeout:    400 * time.Millisecond,
		ViewChangeTimeout:  400 * time.Millisecond,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 500 * time.Millisecond,
		WANDropRate:        0.05,
		WANDupRate:         0.01,
		LANDropRate:        0.01,
		FaultJitter:        0.1,
	}
}

// runChaos executes one preset under a seeded randomized fault schedule: the
// lossy WAN of chaosCfg plus one crash/recover cycle per group (random
// follower, random time, random downtime). All faults are injected before
// t=3.8s; the run then has >4s of post-heal time to recover in.
func runChaos(t *testing.T, opts cluster.Options, seed int64) *cluster.Cluster {
	t.Helper()
	cfg := chaosCfg(opts, seed)
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	// Followers only: leaders (index 0, including the observer) stay up so
	// local consensus and metrics keep running — leader crashes are exercised
	// by the view-change tests.
	rng := rand.New(rand.NewSource(seed))
	for g := range cfg.GroupSizes {
		idx := 1 + rng.Intn(cfg.GroupSizes[g]-1)
		at := 1500*time.Millisecond + time.Duration(rng.Intn(1000))*time.Millisecond
		down := 500*time.Millisecond + time.Duration(rng.Intn(800))*time.Millisecond
		victim := keys.NodeID{Group: g, Index: idx}
		c.ScheduleNodeCrash(at, victim)
		c.ScheduleNodeRecover(at+down, victim)
	}
	return c
}

// assertChaosOutcome checks the two chaos invariants after the run drained:
//
// Safety — identical committed prefixes: every node's sealed ledger is a
// prefix of every other's (same block hashes height-for-height), no node
// double-executed (state hashes all equal, and StateDigest chaining would
// break on any re-execution).
//
// Liveness — after the last fault heals, every group's entry stream keeps
// executing (at least one new committed entry per group).
func assertChaosOutcome(t *testing.T, c *cluster.Cluster, midExec, endExec []uint64) {
	t.Helper()
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no progress under chaos: %s", m.Summary())
	}
	if m.Counter("net-dropped") == 0 {
		t.Fatalf("fault layer inactive — chaos test tested nothing: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("no crashed node rejoined via state transfer: %s", m.Summary())
	}
	for g := range endExec {
		if endExec[g] <= midExec[g] {
			t.Fatalf("group %d made no progress after faults healed (stuck at seq %d): %s",
				g, endExec[g], m.Summary())
		}
	}
	// Safety: identical committed prefixes across every node (crashed nodes
	// rejoined, so nobody is exempt), and identical final states.
	var minH uint64
	ledgers := make(map[keys.NodeID]*Node)
	for g, size := range c.Cfg.GroupSizes {
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			n := c.Nodes[id].(*Node)
			ledgers[id] = n
			h := n.Ledger().Height()
			if minH == 0 || h < minH {
				minH = h
			}
		}
	}
	if minH == 0 {
		t.Fatalf("some node sealed no blocks: %s", m.Summary())
	}
	ref := c.Nodes[keys.NodeID{Group: 0, Index: 0}].(*Node).Ledger()
	refAt := ref.Block(minH)
	for id, n := range ledgers {
		l := n.Ledger()
		if err := l.Verify(); err != nil {
			t.Fatalf("node %v ledger integrity: %v", id, err)
		}
		b := l.Block(minH)
		if b == nil || refAt == nil || b.Hash() != refAt.Hash() {
			t.Fatalf("node %v committed prefix diverges at height %d: %s", id, minH, m.Summary())
		}
	}
	assertConsistency(t, c, nil)
}

func chaosRun(t *testing.T, opts cluster.Options, seed int64) {
	c := runChaos(t, opts, seed)
	// All faults heal by 3.8s; snapshot per-group progress at 4s, then let the
	// cluster run its tail and drain.
	c.RunUntil(4 * time.Second)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(c.Cfg.RunFor)
	// Drain until every node's state converges rather than to a fixed
	// deadline: round mode commits far ahead of the CPU-throttled execution
	// cursor, so a hard cutoff freeze-frames nodes mid-burn a round or two
	// apart (and recovery paths armed in the final tick need their timeout to
	// fire). The cap keeps a genuine wedge failing.
	deadline := c.Net.Now() + 15*time.Second
	for {
		c.Drain(500 * time.Millisecond)
		if chaosConverged(c) || c.Net.Now() >= deadline {
			break
		}
	}
	end := obs.ExecutedSeqs()
	assertChaosOutcome(t, c, mid, end)
}

// chaosConverged reports whether every node has reached the same state hash
// and sealed the same ledger height — hash equality alone is not enough, a
// rejoined node can match the state while still replaying its ledger tail.
func chaosConverged(c *cluster.Cluster) bool {
	var ref [32]byte
	var refH uint64
	var refSet bool
	for g, size := range c.Cfg.GroupSizes {
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			h := c.StateHash(id)
			lh := c.Nodes[id].(*Node).Ledger().Height()
			if !refSet {
				ref, refH, refSet = h, lh, true
			} else if h != ref || lh != refH {
				return false
			}
		}
	}
	return true
}

// TestChaosMassBFT runs the flagship preset through the full chaos schedule.
func TestChaosMassBFT(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	chaosRun(t, cluster.PresetMassBFT(), 42)
}

// TestChaosBaseline runs the round-ordered competitor preset through the same
// schedule: the recovery machinery (stream repair, entry fetch, rejoin) is
// protocol-agnostic and must hold there too.
func TestChaosBaseline(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	chaosRun(t, cluster.PresetBaseline(), 43)
}

// --- WAN partition schedules (quorum-witnessed failover) --------------------

// partitionChaos builds a chaos-environment cluster (lossy WAN, duplication,
// jitter) with no crash/recover noise, so the partition schedules below act on
// an otherwise healthy cluster and the failover counters can be asserted
// exactly.
func partitionChaos(t *testing.T, opts cluster.Options, seed int64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(chaosCfg(opts, seed), NewNode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// liveConverged is chaosConverged restricted to the groups not in skip —
// permanently crashed groups can never converge and must not gate draining.
func liveConverged(c *cluster.Cluster, skip map[int]bool) bool {
	var ref [32]byte
	var refH uint64
	var refSet bool
	for g, size := range c.Cfg.GroupSizes {
		if skip[g] {
			continue
		}
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			h := c.StateHash(id)
			lh := c.Nodes[id].(*Node).Ledger().Height()
			if !refSet {
				ref, refH, refSet = h, lh, true
			} else if h != ref || lh != refH {
				return false
			}
		}
	}
	return true
}

// drainLive drains until every live node reaches the same state hash and
// ledger height, with a hard cap so a genuine wedge still fails the test.
func drainLive(c *cluster.Cluster, skip map[int]bool) {
	deadline := c.Net.Now() + 15*time.Second
	for {
		c.Drain(500 * time.Millisecond)
		if liveConverged(c, skip) || c.Net.Now() >= deadline {
			break
		}
	}
}

// assertLiveSafety checks the partition-safety invariants over live nodes:
// every ledger verifies, the forensics classifier reports full convergence
// (a Forked verdict is a safety violation, a Wedged one a liveness gap that
// outlasted the drain), and no conflicting takeover stamps ever certified.
func assertLiveSafety(t *testing.T, c *cluster.Cluster, skip map[int]bool) {
	t.Helper()
	m := c.Metrics
	sealed := false
	for g, size := range c.Cfg.GroupSizes {
		if skip[g] {
			continue
		}
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			n := c.Nodes[id].(*Node)
			if err := n.Ledger().Verify(); err != nil {
				t.Fatalf("node %v ledger integrity: %v", id, err)
			}
			if n.Ledger().Height() > 0 {
				sealed = true
			}
		}
	}
	if !sealed {
		t.Fatalf("no live node sealed any blocks: %s", m.Summary())
	}
	if rep := c.AgreementReport(skip); rep.Verdict != forensics.Converged {
		t.Fatalf("agreement forensics: %v\n%s", rep, m.Summary())
	}
	assertConsistency(t, c, skip)
	if m.Counter("ts-conflicts") != 0 {
		t.Fatalf("conflicting takeover stamps certified: %s", m.Summary())
	}
}

// TestPartitionHealBeforeQuorumAsymmetric severs a single WAN link (groups
// 0<->2) for three seconds. Both endpoint groups certify suspicions of each
// other, but a death needs a Byzantine quorum of distinct suspecting groups
// visible at the victim's successor — and with only one link cut, each victim
// has exactly one suspecter, so the quorum is structurally unreachable no
// matter how long the partition lasts. The old node-local verdict would have
// taken over here; the quorum-witnessed protocol must keep both groups in
// service, certify zero deaths and zero takeover stamps, and retract the
// suspicions after the heal.
func TestPartitionHealBeforeQuorumAsymmetric(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c := partitionChaos(t, cluster.PresetMassBFT(), 50)
	c.SchedulePartition(1*time.Second, 4*time.Second, 0, 2)
	c.RunUntil(4500 * time.Millisecond)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(c.Cfg.RunFor)
	drainLive(c, nil)
	m := c.Metrics
	if m.Counter("group-suspects") == 0 {
		t.Fatalf("partition raised no certified suspicion: %s", m.Summary())
	}
	if d := m.Counter("group-deaths"); d != 0 {
		t.Fatalf("asymmetric partition certified %d group deaths (quorum should be unreachable): %s",
			d, m.Summary())
	}
	if s := m.Counter("takeover-stamps"); s != 0 {
		t.Fatalf("%d takeover stamps emitted without a certified death: %s", s, m.Summary())
	}
	if m.Counter("group-revokes") == 0 {
		t.Fatalf("suspicions never retracted after heal: %s", m.Summary())
	}
	end := obs.ExecutedSeqs()
	for g := range end {
		if end[g] <= mid[g] {
			t.Fatalf("group %d made no progress after heal: %s", g, m.Summary())
		}
	}
	assertLiveSafety(t, c, nil)
}

// TestPartitionHealBeforeQuorumSymmetric fully isolates group 2 — first from
// group 0, later from group 1 as well — and heals both links before a second
// suspicion can form. Group 0's certified suspicion stands alone: by the time
// group 1's silence window would trip, the heal has already revived group 2's
// stream. The quorum never assembles, no death certifies, and the suspected
// group returns to service with the suspicion retracted.
func TestPartitionHealBeforeQuorumSymmetric(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	c := partitionChaos(t, cluster.PresetMassBFT(), 51)
	c.SchedulePartition(1*time.Second, 3*time.Second, 0, 2)
	c.SchedulePartition(2200*time.Millisecond, 3*time.Second, 1, 2)
	c.RunUntil(4 * time.Second)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(c.Cfg.RunFor)
	drainLive(c, nil)
	m := c.Metrics
	if m.Counter("group-suspects") == 0 {
		t.Fatalf("isolation raised no certified suspicion: %s", m.Summary())
	}
	if d := m.Counter("group-deaths"); d != 0 {
		t.Fatalf("heal-before-quorum still certified %d group deaths: %s", d, m.Summary())
	}
	if s := m.Counter("takeover-stamps"); s != 0 {
		t.Fatalf("%d takeover stamps emitted without a certified death: %s", s, m.Summary())
	}
	if m.Counter("group-revokes") == 0 {
		t.Fatalf("suspicions never retracted after heal: %s", m.Summary())
	}
	end := obs.ExecutedSeqs()
	for g := range end {
		if end[g] <= mid[g] {
			t.Fatalf("group %d made no progress after heal: %s", g, m.Summary())
		}
	}
	assertLiveSafety(t, c, nil)
}

// TestPartitionChaosFailover is the acceptance scenario for quorum-witnessed
// failover: group 2 crashes outright, and while its silence window is still
// running, a WAN partition splits the two surviving groups — isolating the
// designated successor (group 0) exactly when the old protocol would have let
// both sides reach independent local takeover verdicts. Neither side can
// assemble a suspicion quorum alone (each holds only its own certified
// suspicion of group 2), so nothing is decided during the split; after the
// heal the two standing suspicions meet and exactly one GroupDead(2)
// certifies cluster-wide. The survivors' mutual suspicions retract, the
// successor's takeover stamps release the ordering backlog, and the live
// groups converge to identical prefixes.
func TestPartitionChaosFailover(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := chaosCfg(cluster.PresetMassBFT(), 52)
	// The default observer lives in group 2 — the group this schedule kills;
	// progress and latency must be observed from a surviving node.
	cfg.SetObserver(keys.NodeID{Group: 0, Index: 0})
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(1*time.Second, 2)
	c.SchedulePartition(1200*time.Millisecond, 3500*time.Millisecond, 0, 1)
	c.RunUntil(4500 * time.Millisecond)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(c.Cfg.RunFor)
	skip := map[int]bool{2: true}
	drainLive(c, skip)
	m := c.Metrics
	if d := m.Counter("deaths-emitted"); d != 1 {
		t.Fatalf("want exactly one certified GroupDead decision, got %d: %s", d, m.Summary())
	}
	if m.Counter("dead-dupes") != 0 {
		t.Fatalf("duplicate death records certified: %s", m.Summary())
	}
	var live int64
	for g, size := range c.Cfg.GroupSizes {
		if !skip[g] {
			live += int64(size)
		}
	}
	if got := m.Counter("group-deaths"); got != live {
		t.Fatalf("GroupDead processed by %d nodes, want all %d live nodes: %s", got, live, m.Summary())
	}
	if m.Counter("takeover-stamps") == 0 {
		t.Fatalf("successor emitted no takeover stamps after the certified death: %s", m.Summary())
	}
	if m.Counter("group-revokes") == 0 {
		t.Fatalf("survivors' mutual suspicions never retracted after heal: %s", m.Summary())
	}
	end := obs.ExecutedSeqs()
	for g := range end {
		if skip[g] {
			continue
		}
		if end[g] <= mid[g] {
			t.Fatalf("group %d backlog did not drain after heal (mid=%v end=%v): %s",
				g, mid, end, m.Summary())
		}
	}
	assertLiveSafety(t, c, skip)
	assertCensus(t, c, "65cc232f883f2e3c")
}

// TestSimultaneousGroupDeathsCertifyTogether kills groups 0 and 1 at the same
// instant on a four-group cluster. Their naive successors are each other
// (successor(0)=1, successor(1)=0), so a death scan that resolved successors
// one group at a time could never certify either death: each decision waited
// for the other group's death to certify first. The batched scan collects the
// whole death-eligible set before resolving successors, so group 2 certifies
// both deaths in a single suspicion window and the survivors drain both
// backlogs.
func TestSimultaneousGroupDeathsCertifyTogether(t *testing.T) {
	t.Parallel()
	cfg := cluster.Config{
		GroupSizes:         []int{3, 3, 3, 3},
		Opts:               cluster.PresetMassBFT(),
		Workload:           "ycsb-a",
		Seed:               54,
		MaxBatch:           10,
		BatchTimeout:       10 * time.Millisecond,
		PipelineDepth:      4,
		RunFor:             4 * time.Second,
		Warmup:             300 * time.Millisecond,
		TakeoverTimeout:    200 * time.Millisecond,
		ViewChangeTimeout:  300 * time.Millisecond,
		RepairTimeout:      100 * time.Millisecond,
		CheckpointInterval: 400 * time.Millisecond,
		TrustAll:           true,
	}
	// Both dead groups must be observed from a survivor.
	cfg.SetObserver(keys.NodeID{Group: 2, Index: 0})
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(800*time.Millisecond, 0)
	c.ScheduleGroupCrash(800*time.Millisecond, 1)
	c.RunUntil(2200 * time.Millisecond)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(cfg.RunFor)
	skip := map[int]bool{0: true, 1: true}
	drainLive(c, skip)
	m := c.Metrics
	if d := m.Counter("deaths-emitted"); d != 2 {
		t.Fatalf("want both GroupDead decisions certified, got %d: %s", d, m.Summary())
	}
	if m.Counter("death-batches") == 0 {
		t.Fatalf("simultaneous deaths did not certify in one scan: %s", m.Summary())
	}
	if m.Counter("dead-dupes") != 0 {
		t.Fatalf("duplicate death records certified: %s", m.Summary())
	}
	var live int64
	for g, size := range c.Cfg.GroupSizes {
		if !skip[g] {
			live += int64(size)
		}
	}
	if got := m.Counter("group-deaths"); got != 2*live {
		t.Fatalf("GroupDead processed %d times, want 2 deaths x %d live nodes: %s",
			got, live, m.Summary())
	}
	if m.Counter("takeover-stamps") == 0 {
		t.Fatalf("successor emitted no takeover stamps after the certified deaths: %s", m.Summary())
	}
	end := obs.ExecutedSeqs()
	for g := range end {
		if skip[g] {
			continue
		}
		if end[g] <= mid[g] {
			t.Fatalf("group %d backlog did not drain after the deaths (mid=%v end=%v): %s",
				g, mid, end, m.Summary())
		}
	}
	assertLiveSafety(t, c, skip)
	assertCensus(t, c, "af72b1c0db696f19")
}

// TestMembershipCrashOverlapEpochSwitch is the crash-overlap acceptance
// schedule for certified dynamic membership: standby group 3's join is
// triggered at 1s, and while the epoch switch is in flight two followers of
// group 1 crash with overlapping downtime — briefly leaving group 1 below
// its local quorum, so it stalls mid-switch and must catch up through the
// checkpointed rejoin path afterwards. The epoch switch must certify without
// group 1's vote (the quorum is 2 of 3 member groups), every node must land
// on the same post-join membership, and no fork or conflicting stamp may
// certify anywhere.
func TestMembershipCrashOverlapEpochSwitch(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := cluster.Config{
		GroupSizes:        []int{4, 4, 4, 4},
		Opts:              cluster.PresetMassBFT(),
		Workload:          "ycsb-a",
		Seed:              64,
		MaxBatch:          10,
		BatchTimeout:      10 * time.Millisecond,
		PipelineDepth:     4,
		RunFor:            6 * time.Second,
		Warmup:            300 * time.Millisecond,
		TakeoverTimeout:   300 * time.Millisecond,
		ViewChangeTimeout: 400 * time.Millisecond,
		// Longer than group 1's stall: this schedule is about crash overlap
		// during an epoch switch, not about certifying a group death.
		SuspectTimeout:     4 * time.Second,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 300 * time.Millisecond,
		RejoinTimeout:      300 * time.Millisecond,
		TrustAll:           true,
		StandbyGroups:      1,
	}
	cfg.SetObserver(keys.NodeID{Group: 0, Index: 0})
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleReconfigure(1*time.Second, cluster.ReconfigJoin, 3)
	// Overlapping follower crashes in group 1: (1,1) down 1.1s-2.3s,
	// (1,2) down 1.5s-2.7s. During the overlap only 2 of 4 members are up —
	// below the 2f+1=3 local quorum — so group 1 can neither vote nor
	// certify records until the first recovery.
	c.ScheduleNodeCrash(1100*time.Millisecond, keys.NodeID{Group: 1, Index: 1})
	c.ScheduleNodeRecover(2300*time.Millisecond, keys.NodeID{Group: 1, Index: 1})
	c.ScheduleNodeCrash(1500*time.Millisecond, keys.NodeID{Group: 1, Index: 2})
	c.ScheduleNodeRecover(2700*time.Millisecond, keys.NodeID{Group: 1, Index: 2})
	c.RunUntil(3500 * time.Millisecond)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(cfg.RunFor)
	drainLive(c, nil)

	m := c.Metrics
	if m.Counter("groups-joined") == 0 {
		t.Fatalf("epoch switch never applied on the joining group: %s", m.Summary())
	}
	if m.Counter("state-transfers") == 0 {
		t.Fatalf("no crashed node recovered via state transfer: %s", m.Summary())
	}
	if d := m.Counter("deaths-emitted"); d != 0 {
		t.Fatalf("crash overlap certified %d group deaths (schedule should stay below the suspect window): %s",
			d, m.Summary())
	}
	assertEpochEverywhere(t, c, 1, []int{0, 1, 2, 3}, nil)
	end := obs.ExecutedSeqs()
	for g := range end {
		if end[g] <= mid[g] {
			t.Fatalf("group %d made no progress after the crashes healed (mid=%v end=%v): %s",
				g, mid, end, m.Summary())
		}
	}
	if seqs := end; seqs[3] == 0 {
		t.Fatalf("joined group never executed an entry of its own (%v): %s", seqs, m.Summary())
	}
	assertLiveSafety(t, c, nil)
}

// TestPartitionFailoverReduced is a reduced-schedule partition failover run
// kept fast enough for the -race -short CI shard (it deliberately does NOT
// skip under -short): a three-group Baseline cluster — covering the
// round-ordered skip path — loses group 2 outright, a partition splits the
// survivors during the silence window, and after the heal exactly one
// certified GroupDead(2) skip decision forms.
func TestPartitionFailoverReduced(t *testing.T) {
	t.Parallel()
	cfg := cluster.Config{
		GroupSizes:         []int{3, 3, 3},
		Opts:               cluster.PresetBaseline(),
		Workload:           "ycsb-a",
		Seed:               53,
		MaxBatch:           10,
		BatchTimeout:       10 * time.Millisecond,
		PipelineDepth:      4,
		RunFor:             4 * time.Second,
		Warmup:             300 * time.Millisecond,
		TakeoverTimeout:    200 * time.Millisecond,
		ViewChangeTimeout:  300 * time.Millisecond,
		RepairTimeout:      100 * time.Millisecond,
		CheckpointInterval: 400 * time.Millisecond,
		TrustAll:           true,
	}
	// The default observer lives in group 2, which this schedule kills.
	cfg.SetObserver(keys.NodeID{Group: 0, Index: 0})
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleGroupCrash(800*time.Millisecond, 2)
	c.SchedulePartition(1*time.Second, 2200*time.Millisecond, 0, 1)
	c.RunUntil(2200 * time.Millisecond)
	obs := c.Nodes[c.Cfg.Observer].(*Node)
	mid := obs.ExecutedSeqs()
	c.RunUntil(cfg.RunFor)
	skip := map[int]bool{2: true}
	drainLive(c, skip)
	m := c.Metrics
	if d := m.Counter("deaths-emitted"); d != 1 {
		t.Fatalf("want exactly one certified GroupDead decision, got %d: %s", d, m.Summary())
	}
	if m.Counter("dead-dupes") != 0 {
		t.Fatalf("duplicate death records certified: %s", m.Summary())
	}
	end := obs.ExecutedSeqs()
	for g := range end {
		if skip[g] {
			continue
		}
		if end[g] <= mid[g] {
			t.Fatalf("group %d backlog did not drain after heal (mid=%v end=%v): %s",
				g, mid, end, m.Summary())
		}
	}
	assertLiveSafety(t, c, skip)
}
