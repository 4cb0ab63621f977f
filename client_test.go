package massbft

import (
	"net"
	"sync"
	"testing"
	"time"

	"massbft/internal/workload"
)

// gatewayTopology is a 2-group x 2-node loopback cluster with client
// gateways on every node and a registered client identity set.
func gatewayTopology(t *testing.T, clients int) *Topology {
	t.Helper()
	topo := testTopology(t)
	topo.Clients = clients
	topo.GroupRate = nil // gateway mode: load comes from clients, not leaders
	gws := make([]string, len(topo.Nodes))
	ls := make([]net.Listener, len(topo.Nodes))
	for i := range gws {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		gws[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	for i := range topo.Nodes {
		topo.Nodes[i].Gateway = gws[i]
	}
	return topo
}

// TestTCPGatewayClientEndToEnd drives real closed-loop clients over TCP
// through the full external-client protocol: framed gateway connections,
// Ed25519 request intake through the parallel verification pool, leader
// forwarding, consensus, execution, and f+1 signed reply certificates
// collected by the public ClientPool/Client API.
func TestTCPGatewayClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	topo := gatewayTopology(t, 16)
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

	// The gateway pipeline's counters must show the real path was taken.
	st := waitStatus(t, nodes[0], 5*time.Second, "gateway counters", func(s NodeStatus) bool {
		return s.Counters["gateway-verified"] > 0 && s.Counters["gateway-executed"] > 0
	})
	if st.Counters["gateway-reply-sent"] == 0 {
		t.Fatalf("node (0,0) never routed a reply to a client connection: %v", st.Counters)
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
	topo := gatewayTopology(t, 4)
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
