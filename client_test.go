package massbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// gatewayTopology is a loopback cluster of the given group sizes with client
// gateways on every node and a registered client identity set.
func gatewayTopology(t *testing.T, clients int, groups ...int) *Topology {
	t.Helper()
	topo := testTopology(t, groups...)
	topo.Clients = clients
	topo.GroupRate = nil // gateway mode: load comes from clients, not leaders
	// Both address sets from one reservation: a second one could hand back a
	// port the first has just released.
	addrs := freeAddrs(t, 2*len(topo.Nodes))
	for i := range topo.Nodes {
		topo.Nodes[i].Addr, topo.Nodes[i].Gateway = addrs[i], addrs[len(topo.Nodes)+i]
	}
	return topo
}

// TestTCPGatewayClientEndToEnd drives real closed-loop clients over TCP
// through the full external-client protocol: framed gateway connections,
// Ed25519 verification at the leader's cut, leader forwarding,
// consensus, execution, and f+1 signed reply certificates collected by the
// public ClientPool/Client API — over 2-node groups and over an f = 1 quorum.
func TestTCPGatewayClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	for _, groups := range [][]int{{2, 2}, {4, 4}} {
		t.Run(fmt.Sprint(groups), func(t *testing.T) { tcpGatewayEndToEnd(t, groups) })
	}
}

func tcpGatewayEndToEnd(t *testing.T, groups []int) {
	topo := gatewayTopology(t, 16, groups...)
	topo.RealCrypto = true // the whole point: authenticated intake for real
	nodes := make([]*ProcNode, 0, len(topo.Nodes))
	for _, na := range topo.Nodes {
		nodes = append(nodes, startTestNode(t, topo, na.Group, na.Index, false))
	}
	defer func() {
		for _, n := range nodes {
			n.Stop(0)
		}
	}()
	for _, n := range nodes {
		if n.GatewayAddr() == "" {
			t.Fatal("node started without its gateway listener")
		}
	}

	pool, err := DialClients(ClientPoolConfig{Topology: topo, First: 1, Count: 8, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// A tampered request reaches the leader first: it is evicted at the cut,
	// counted, and (checked after the load) never proposed.
	bad := types.Transaction{Client: 1, Nonce: 1 << 20, Payload: []byte("tampered")}
	bad.Sig = pool.cks[1].Sign(keys.ClientRequestMessage(bad.Client, bad.Nonce, bad.Payload))
	bad.Sig[0] ^= 0xff
	pool.send(keys.NodeID{Group: 0, Index: 0}, bad)
	waitStatus(t, nodes[0], 5*time.Second, "the tampered request to be refused", func(s NodeStatus) bool {
		return s.Counters["gateway-verify-fail"] == 1
	})

	const perClient = 3
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []struct {
			replies int
			err     error
		}
	)
	for id := uint64(1); id <= 8; id++ {
		cl, err := pool.Client(id)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(topo.Workload, topo.Seed+int64(id)*7919)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				res, err := cl.Submit(gen.Next(cl.ID()).Payload)
				mu.Lock()
				results = append(results, struct {
					replies int
					err     error
				}{res.Replies, err})
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	committed := 0
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("client submit failed: %v", r.err)
		}
		if r.replies < 1 {
			t.Fatalf("certificate with %d replies", r.replies)
		}
		committed++
	}
	if committed != 8*perClient {
		t.Fatalf("committed %d of %d requests", committed, 8*perClient)
	}

	// The gateway pipeline's counters must show the real path was taken, and
	// that nothing but the clients' own requests was ever executed: the
	// tampered one, submitted before them all, would have been cut first.
	st := waitStatus(t, nodes[0], 5*time.Second, "gateway counters", func(s NodeStatus) bool {
		return s.Counters["gateway-verified"] > 0 && s.Counters["gateway-executed"] >= 8*perClient
	})
	if st.Counters["gateway-reply-sent"] == 0 {
		t.Fatalf("node (0,0) never routed a reply to a client connection: %v", st.Counters)
	}
	if st.Counters["gateway-executed"] != 8*perClient || st.Counters["gateway-verify-fail"] != 1 {
		t.Fatalf("tampered request not refused exactly once and kept out of the ledger: %v", st.Counters)
	}
	// Ledger prefix agreement across groups still holds under client load.
	var sts []NodeStatus
	for _, n := range nodes {
		s, err := n.Status()
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, s)
	}
	for i := 1; i < len(sts); i++ {
		trailAgree(t, sts[0], sts[i])
	}
}

// TestClientRoutesToGatewayMembers pins the submission rotation to members
// that can take the request: with a gateway on one member per group, a fresh
// request rotated onto a gateway-less member used to vanish in ClientPool.send
// and the client sat out the whole attempt timeout before resubmitting. Every
// Submit must certify on its first attempt, well inside one timeout.
func TestClientRoutesToGatewayMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	topo := gatewayTopology(t, 4, 2, 2)
	for i := range topo.Nodes {
		if topo.Nodes[i].Index != 0 {
			topo.Nodes[i].Gateway = ""
		}
	}
	for _, na := range topo.Nodes {
		n := startTestNode(t, topo, na.Group, na.Index, false)
		defer n.Stop(0)
	}
	const timeout = 2 * time.Second
	pool, err := DialClients(ClientPoolConfig{Topology: topo, First: 1, Count: 4, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for id := uint64(1); id <= 4; id++ {
		cl, err := pool.Client(id)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.New(topo.Workload, topo.Seed+int64(id))
		if err != nil {
			t.Fatal(err)
		}
		// Consecutive nonces walk the rotation over every member index.
		for k := 0; k < 4; k++ {
			began := time.Now()
			res, err := cl.Submit(gen.Next(id).Payload)
			if err != nil {
				t.Fatalf("client %d request %d: %v", id, k, err)
			}
			if took := time.Since(began); res.Attempts != 1 || took > timeout/2 {
				t.Fatalf("client %d request %d: %d attempts in %v (attempt timeout %v)",
					id, k, res.Attempts, took, timeout)
			}
		}
	}
}
