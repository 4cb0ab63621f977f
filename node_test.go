package massbft

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// testTopology builds a loopback topology of the given group sizes on freshly
// reserved ports, tuned small so the cluster commits quickly without
// saturating a CI machine.
func testTopology(t *testing.T, groups ...int) *Topology {
	t.Helper()
	var nodes []NodeAddr
	rate := make([]float64, len(groups))
	for g, size := range groups {
		rate[g] = 200
		for i := 0; i < size; i++ {
			nodes = append(nodes, NodeAddr{Group: g, Index: i})
		}
	}
	for i, a := range freeAddrs(t, len(nodes)) {
		nodes[i].Addr = a
	}
	return &Topology{
		Groups:               groups,
		Seed:                 7,
		Nodes:                nodes,
		Workload:             "ycsb-a",
		BatchTimeoutMS:       50,
		MaxBatch:             20,
		GroupRate:            rate,
		RepairTimeoutMS:      200,
		CheckpointIntervalMS: 300,
		RejoinTimeoutMS:      1000,
	}
}

// freeAddrs returns n distinct loopback addresses that were free a moment ago.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func startTestNode(t *testing.T, topo *Topology, g, i int, rejoin bool) *ProcNode {
	t.Helper()
	n, err := StartNode(NodeConfig{Topology: topo, Group: g, Index: i, Rejoin: rejoin})
	if err != nil {
		t.Fatalf("start (%d,%d): %v", g, i, err)
	}
	return n
}

// waitStatus polls cond against a node's status until it holds or the
// deadline passes.
func waitStatus(t *testing.T, n *ProcNode, timeout time.Duration, what string, cond func(NodeStatus) bool) NodeStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last NodeStatus
	for time.Now().Before(deadline) {
		st, err := n.Status()
		if err == nil {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (last: height=%d entries=%d committed=%d)",
		what, last.Height, last.Entries, last.Committed)
	return last
}

// trailAgree asserts two nodes hold the same block hash at every height
// their status trails share — prefix agreement despite different heights.
func trailAgree(t *testing.T, a, b NodeStatus) int {
	t.Helper()
	bh := make(map[uint64]string, len(b.Trail))
	for _, p := range b.Trail {
		bh[p.Height] = p.Hash
	}
	shared := 0
	for _, p := range a.Trail {
		if h, ok := bh[p.Height]; ok {
			shared++
			if h != p.Hash {
				t.Fatalf("ledger fork at height %d: (%d,%d)=%s vs (%d,%d)=%s",
					p.Height, a.Group, a.Index, p.Hash[:12], b.Group, b.Index, h[:12])
			}
		}
	}
	return shared
}

// TestTCPClusterEndToEnd runs the full MassBFT protocol as four in-process
// "processes" glued only by real TCP sockets on loopback: entries must
// commit on every node with ledger prefix agreement; then one follower is
// killed and restarted with -rejoin semantics, and must catch back up via
// the checkpointed-rejoin path while the survivors' supervisors reconnect.
func TestTCPClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	topo := testTopology(t, 2, 2)
	nodes := make(map[[2]int]*ProcNode, 4)
	for _, na := range topo.Nodes {
		nodes[[2]int{na.Group, na.Index}] = startTestNode(t, topo, na.Group, na.Index, false)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop(0)
		}
	}()

	// Phase 1: every node executes committed entries end-to-end.
	sts := make(map[[2]int]NodeStatus, 4)
	for key, n := range nodes {
		sts[key] = waitStatus(t, n, 60*time.Second, fmt.Sprintf("(%d,%d) to commit", key[0], key[1]),
			func(st NodeStatus) bool { return st.Height >= 5 && st.Committed > 0 })
	}
	ref := sts[[2]int{0, 0}]
	for key, st := range sts {
		if key == [2]int{0, 0} {
			continue
		}
		if trailAgree(t, ref, st) == 0 {
			t.Fatalf("(%d,%d) shares no trail heights with (0,0) yet", key[0], key[1])
		}
	}

	// Phase 2: kill follower (1,1) abruptly (no drain), let the cluster
	// run on, then restart it in rejoin mode on the same address.
	victim := [2]int{1, 1}
	nodes[victim].Stop(0)
	delete(nodes, victim)

	peer := nodes[[2]int{1, 0}] // its LAN peer notices the dead connection
	waitStatus(t, peer, 30*time.Second, "survivor to notice the dead peer",
		func(st NodeStatus) bool {
			return st.Transport.DialFailures > 0 || st.Transport.HeartbeatMisses > 0 ||
				st.Transport.SendTimeouts > 0
		})
	hBefore := waitStatus(t, peer, 60*time.Second, "survivors to keep committing",
		func(st NodeStatus) bool { return st.Height >= sts[victim].Height+3 }).Height

	restarted := startTestNode(t, topo, victim[0], victim[1], true)
	nodes[victim] = restarted

	// The restarted node must catch up past where the cluster was when it
	// came back, and agree on the chain prefix with its group peer.
	stR := waitStatus(t, restarted, 90*time.Second, "restarted node to catch up",
		func(st NodeStatus) bool { return st.Height >= hBefore })
	stP, err := peer.Status()
	if err != nil {
		t.Fatal(err)
	}
	if trailAgree(t, stR, stP) == 0 {
		// Heights can have drifted past each other's trail window between
		// the two samples; re-sample once at a closer moment.
		stR2, err1 := restarted.Status()
		stP2, err2 := peer.Status()
		if err1 != nil || err2 != nil || trailAgree(t, stR2, stP2) == 0 {
			t.Fatalf("restarted node shares no trail heights with its peer")
		}
	}

	// Transport evidence of the recovery: the restarted process dialed its
	// peers afresh, and at least one survivor re-established a supervised
	// connection it had lost.
	if stR.Transport.Connects == 0 {
		t.Fatalf("restarted node never connected: %+v", stR.Transport)
	}
	recon := uint64(0)
	for key, n := range nodes {
		if key == victim {
			continue
		}
		recon += n.TransportStats().Reconnects
	}
	if recon == 0 {
		t.Fatalf("no survivor reconnected to the restarted node")
	}
}
