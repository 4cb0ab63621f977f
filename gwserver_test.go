package massbft

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/transport"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// helloFrame builds a gateway hello registering [lo, hi).
func helloFrame(lo, hi uint64) []byte {
	p := make([]byte, 0, 17)
	p = append(p, gwHello)
	p = binary.BigEndian.AppendUint64(p, lo)
	p = binary.BigEndian.AppendUint64(p, hi)
	return transport.AppendFrame(nil, transport.FlagControl, p)
}

// TestGatewayHelloRangeValidation pins the bound on the unauthenticated
// hello routing claim: degenerate (lo >= hi) and space-grabbing (width >
// gwMaxHelloRange) ranges are refused by dropping the connection, while a
// sane range registers.
func TestGatewayHelloRangeValidation(t *testing.T) {
	s, err := startGateway(&ProcNode{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	rejected := func(frame []byte) bool {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(frame); err != nil {
			return true
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, _, err = transport.ReadFrame(c) // EOF once the server drops us
		return err != nil
	}

	if !rejected(helloFrame(10, 10)) {
		t.Fatal("empty range accepted")
	}
	if !rejected(helloFrame(10, 5)) {
		t.Fatal("inverted range accepted")
	}
	if !rejected(helloFrame(0, 1<<40)) {
		t.Fatal("range spanning 2^40 client IDs accepted")
	}

	// A sane range registers: the connection stays open and is routable.
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(helloFrame(1, 101)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !s.reply(50, []byte{1}) {
		if time.Now().After(deadline) {
			t.Fatal("valid hello never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayReplyRoutingPrefersActiveConnection pins the routing rule that
// defangs reply capture: a newer connection that merely registered a range
// covering the client does not shadow the older connection the client
// actually submits requests on, and a newer one that carried the client too
// gets a copy, not the reply alone. Clients with traffic nowhere still fall
// back to the newest covering registration.
func TestGatewayReplyRoutingPrefersActiveConnection(t *testing.T) {
	mk := func(lo, hi uint64) *gwConn {
		return &gwConn{lo: lo, hi: hi, out: make(chan []byte, 4), quit: make(chan struct{})}
	}
	real := mk(1, 10)
	real.noteClient(5)
	squatter := mk(1, 1000) // newer registration, no traffic from client 5
	s := &gwServer{conns: []*gwConn{real, squatter}}

	if !s.reply(5, []byte("r")) {
		t.Fatal("reply for active client unrouted")
	}
	select {
	case <-real.out:
	default:
		t.Fatal("reply captured by the newer passive registration")
	}
	if len(squatter.out) != 0 {
		t.Fatal("reply duplicated to the squatter")
	}

	// No traffic anywhere: newest covering registration wins (reconnects
	// supersede dead connections before the first retransmission arrives).
	if !s.reply(7, []byte("r2")) {
		t.Fatal("fallback reply unrouted")
	}
	select {
	case <-squatter.out:
	default:
		t.Fatal("fallback did not pick the newest registration")
	}

	// A newer connection that carried client 5 too (a forged request under
	// 5's ID) gets a copy; it does not take the reply from the older one.
	forger := mk(5, 6)
	forger.noteClient(5)
	s.conns = append(s.conns, forger)
	if !s.reply(5, []byte("r3")) || len(real.out) != 1 || len(forger.out) != 1 || len(squatter.out) != 0 {
		t.Fatalf("reply with two carriers: real %d, forger %d, squatter %d queued", len(real.out), len(forger.out), len(squatter.out))
	}

	// Out-of-range IDs are never noted, so a request forged outside the
	// hello range cannot widen a connection's claim.
	squatter.noteClient(5000)
	if squatter.sawClient(5000) {
		t.Fatal("out-of-range client recorded")
	}
}

// TestGatewayForgedRequestCannotCaptureReplies: a raw connection that says
// hello over client X's range and sends one forged request under X to every
// node, after X's own connections exist, does not take X's receipts away.
// A node marks a connection as carrying X before any signature is checked,
// so the forger's connection carries X as much as X's own does; the client
// still certifies every request because each node replies on both.
func TestGatewayForgedRequestCannotCaptureReplies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	topo := gatewayTopology(t, 4, 2, 2)
	topo.RealCrypto = true
	var nodes []*ProcNode
	for _, na := range topo.Nodes {
		n := startTestNode(t, topo, na.Group, na.Index, false)
		defer n.Stop(0)
		nodes = append(nodes, n)
	}
	pool, err := DialClients(ClientPoolConfig{Topology: topo, First: 1, Count: 4, Timeout: time.Second, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const x = 1
	// registered counts a node's gateway connections and those that carried x.
	registered := func(n *ProcNode) (conns, carriers int) {
		n.gws.mu.Lock()
		defer n.gws.mu.Unlock()
		for _, gc := range n.gws.conns {
			if gc.sawClient(x) {
				carriers++
			}
		}
		return len(n.gws.conns), carriers
	}
	waitAll := func(what string, conns, carriers int) {
		deadline := time.Now().Add(5 * time.Second)
		for _, n := range nodes {
			for c, k := registered(n); c != conns || k != carriers; c, k = registered(n) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s: %d connections, %d carried client %d", what, c, k, x)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}

	// X's connections first, so that the forger's are the newest everywhere.
	for _, na := range topo.Nodes {
		if pool.conn(keys.NodeID{Group: na.Group, Index: na.Index}) == nil {
			t.Fatalf("no gateway connection to (%d,%d)", na.Group, na.Index)
		}
	}
	waitAll("the client's connections", 1, 0)
	forged := types.Transaction{Client: x, Nonce: 1 << 20, Payload: []byte("forged"), Sig: make([]byte, 64)}
	enc, err := cluster.EncodeEnvelope(&cluster.ClientRequest{Txn: forged})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		c, err := net.Dial("tcp", n.GatewayAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(append(helloFrame(x, x+1), transport.AppendFrame(nil, 0, enc)...)); err != nil {
			t.Fatal(err)
		}
	}
	waitAll("the forged requests", 2, 1)

	cl, err := pool.Client(x)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(topo.Workload, topo.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := cl.Submit(gen.Next(x).Payload); err != nil {
			t.Fatalf("request %d of client %d after the forgeries: %v", k, x, err)
		}
	}
}

// TestGatewayConnWatcherExits is the regression test for the per-connection
// shutdown watcher: it must exit when the connection closes naturally, not
// linger on <-s.done for the server's lifetime (one leaked goroutine per
// past client connection).
func TestGatewayConnWatcherExits(t *testing.T) {
	s, err := startGateway(&ProcNode{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()

	before := runtime.NumGoroutine()
	const conns = 30
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(helloFrame(1, 10)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Every serveConn/watcher/writeLoop triple must unwind; allow a little
	// scheduler slack but nothing close to one goroutine per connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g < before+conns/3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d — watchers leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
