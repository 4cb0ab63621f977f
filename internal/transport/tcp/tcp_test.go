package tcp

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/transport"
)

// Test codec: payloads are plain []byte, moved verbatim.
func testEncode(p any) ([]byte, error) {
	b, ok := p.([]byte)
	if !ok {
		return nil, errors.New("test codec: not []byte")
	}
	return b, nil
}
func testDecode(b []byte) (any, error) { return b, nil }

// freeAddrs reserves n distinct loopback addresses. There is a small window
// between releasing and re-binding them, which is fine for tests.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

func fastConfig(self keys.NodeID, listen string, peers map[keys.NodeID]string) Config {
	return Config{
		Self: self, Listen: listen, Peers: peers,
		Encode: testEncode, Decode: testDecode,
		DialTimeout: 500 * time.Millisecond, SendTimeout: 500 * time.Millisecond,
		BackoffMin: 10 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: 250 * time.Millisecond,
		DrainTimeout: 500 * time.Millisecond,
	}
}

// collector accumulates delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []transport.Message
}

func (c *collector) HandleMessage(m transport.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDelivery: both lanes deliver between two networks, self-sends loop
// back without a socket, and byte counters move.
func TestDelivery(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, b := keys.NodeID{Group: 0, Index: 0}, keys.NodeID{Group: 0, Index: 1}

	na, err := New(fastConfig(a, addrs[0], map[keys.NodeID]string{b: addrs[1]}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := New(fastConfig(b, addrs[1], map[keys.NodeID]string{a: addrs[0]}))
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	ca, cb := &collector{}, &collector{}
	na.SetHandler(a, ca)
	nb.SetHandler(b, cb)

	if na.Endpoint(b) != nil {
		t.Fatal("endpoint for a non-hosted node should be nil")
	}
	ep := na.Endpoint(a)
	for i := 0; i < 50; i++ {
		ep.Send(b, []byte{byte(i)}, 1)
		ep.SendPriority(b, []byte{0x80 | byte(i)}, 1)
	}
	ep.Send(a, []byte("self"), 4)

	waitFor(t, 5*time.Second, "remote deliveries", func() bool { return cb.count() == 100 })
	waitFor(t, time.Second, "self delivery", func() bool { return ca.count() == 1 })

	cb.mu.Lock()
	for _, m := range cb.msgs {
		if m.From != a || m.To != b {
			cb.mu.Unlock()
			t.Fatalf("mislabeled delivery: %+v", m)
		}
	}
	cb.mu.Unlock()

	st := na.Stats()
	if st.Connects != 1 || st.BytesOut == 0 {
		t.Fatalf("sender stats off: %+v", st)
	}
	if rs := nb.Stats(); rs.BytesIn == 0 {
		t.Fatalf("receiver saw no bytes: %+v", rs)
	}
}

// TestReconnect: killing and recreating the receiving network forces the
// sender's supervisor through its backoff loop; traffic resumes and the
// reconnect is visible in the stats.
func TestReconnect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, b := keys.NodeID{Group: 0, Index: 0}, keys.NodeID{Group: 0, Index: 1}

	na, err := New(fastConfig(a, addrs[0], map[keys.NodeID]string{b: addrs[1]}))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := New(fastConfig(b, addrs[1], map[keys.NodeID]string{a: addrs[0]}))
	if err != nil {
		t.Fatal(err)
	}
	cb := &collector{}
	nb.SetHandler(b, cb)

	ep := na.Endpoint(a)
	ep.Send(b, []byte("before"), 6)
	waitFor(t, 5*time.Second, "initial delivery", func() bool { return cb.count() == 1 })

	// Kill the receiver. The sender's heartbeats (or the next write) will
	// notice, and its supervisor enters dial/backoff against a dead port.
	nb.Close()
	waitFor(t, 5*time.Second, "sender to notice the dead peer", func() bool {
		st := na.Stats()
		return st.DialFailures > 0 || st.HeartbeatMisses > 0 || st.SendTimeouts > 0
	})

	// Resurrect the receiver on the same address; the supervisor must
	// re-establish and deliver fresh traffic.
	nb2, err := New(fastConfig(b, addrs[1], map[keys.NodeID]string{a: addrs[0]}))
	if err != nil {
		t.Fatal(err)
	}
	defer nb2.Close()
	cb2 := &collector{}
	nb2.SetHandler(b, cb2)

	waitFor(t, 10*time.Second, "redelivery after restart", func() bool {
		ep.Send(b, []byte("after"), 5)
		return cb2.count() > 0
	})
	if st := na.Stats(); st.Reconnects == 0 {
		t.Fatalf("expected reconnects > 0: %+v", st)
	}
}

// TestQueueDropAndTimers: with the peer down, a tiny bulk queue overflows
// and drops (never blocks); After fires on the event loop.
func TestQueueDropAndTimers(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, b := keys.NodeID{Group: 0, Index: 0}, keys.NodeID{Group: 0, Index: 1}

	cfg := fastConfig(a, addrs[0], map[keys.NodeID]string{b: addrs[1]})
	cfg.QueueBulk, cfg.QueuePrio = 2, 2
	na, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()

	ep := na.Endpoint(a)
	done := make(chan struct{})
	start := time.Now()
	ep.After(30*time.Millisecond, func() { close(done) })
	select {
	case <-done:
		if time.Since(start) < 25*time.Millisecond {
			t.Fatal("timer fired early")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}

	// Nobody is listening on b's address: the queue fills, then drops.
	for i := 0; i < 100; i++ {
		ep.Send(b, []byte{byte(i)}, 1)
		ep.SendPriority(b, []byte{byte(i)}, 1)
	}
	st := na.Stats()
	if st.QueueDropBulk == 0 || st.QueueDropPrio == 0 {
		t.Fatalf("expected drops on both lanes: %+v", st)
	}
	if ep.Now() <= 0 {
		t.Fatal("Now must advance")
	}
}

// TestCloseStopsPendingTimers: a fired timer leaves the pending set, and
// Close stops the ones still pending, so a stopped node is not kept
// reachable (through its tick callbacks) until they would have fired.
func TestCloseStopsPendingTimers(t *testing.T) {
	a := keys.NodeID{Group: 0, Index: 0}
	na, err := New(fastConfig(a, freeAddrs(t, 1)[0], nil))
	if err != nil {
		t.Fatal(err)
	}
	ep := na.Endpoint(a)
	pending := func() int {
		na.mu.Lock()
		defer na.mu.Unlock()
		return len(na.timers)
	}
	fired := make(chan struct{})
	ep.After(time.Millisecond, func() { close(fired) })
	late := make(chan struct{})
	ep.After(150*time.Millisecond, func() { close(late) })
	<-fired
	waitFor(t, time.Second, "the fired timer to leave the pending set", func() bool { return pending() == 1 })
	na.Close()
	ep.After(time.Millisecond, func() { t.Error("a timer armed after Close ran") })
	if pending() != 0 {
		t.Fatalf("%d timers pending after Close", pending())
	}
	select {
	case <-late:
		t.Fatal("a timer pending at Close still ran")
	case <-time.After(300 * time.Millisecond):
	}
}

// TestPriorityLaneNeverDropsUnderBulkSaturation pins the gateway-reply
// delivery guarantee: client replies travel the priority lane, so a bulk
// lane saturated with replication traffic must shed ONLY bulk frames — and
// the per-kind drop breakdown must attribute every drop to the bulk kind.
func TestPriorityLaneNeverDropsUnderBulkSaturation(t *testing.T) {
	addrs := freeAddrs(t, 2)
	a, b := keys.NodeID{Group: 0, Index: 0}, keys.NodeID{Group: 0, Index: 1}

	cfg := fastConfig(a, addrs[0], map[keys.NodeID]string{b: addrs[1]})
	cfg.QueueBulk = 4 // tiny bulk lane: saturates after 4 frames
	cfg.QueuePrio = 256
	na, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	ep := na.Endpoint(a)

	// Nobody listens on b's address, so neither lane drains: queue
	// occupancy and drops are exact. Kind bytes mirror the wire contract:
	// 5 = chunk-batch (replication bulk), 17 = client-reply.
	const kindBulk, kindReply = 5, 17
	for i := 0; i < 100; i++ {
		ep.Send(b, []byte{kindBulk, byte(i)}, 2)
	}
	for i := 0; i < 50; i++ {
		ep.SendPriority(b, []byte{kindReply, byte(i)}, 2)
	}
	st := na.Stats()
	if st.QueueDropPrio != 0 {
		t.Fatalf("client replies dropped on the priority lane: %+v", st)
	}
	if st.QueueDropBulk != 96 {
		t.Fatalf("bulk lane should have shed exactly 96 of 100 frames, dropped %d", st.QueueDropBulk)
	}
	if got := st.DropsByKind[kindBulk]; got != 96 {
		t.Fatalf("per-kind breakdown lost bulk drops: DropsByKind[%d]=%d want 96", kindBulk, got)
	}
	if got, ok := st.DropsByKind[kindReply]; ok {
		t.Fatalf("per-kind breakdown charges %d drops to client replies; none happened", got)
	}
}
