package core

import (
	"fmt"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/transport"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// gatewayCfg is smallCfg with the client gateway switched on and n simulated
// closed-loop clients.
func gatewayCfg(n int) cluster.Config {
	cfg := smallCfg()
	cfg.TrustAll = false
	cfg.Gateway = cluster.GatewayConfig{
		SimClients: n,
	}
	return cfg
}

// TestGatewayEndToEnd drives closed-loop clients through the full path:
// signed intake → adaptive batching → consensus → execution → f+1 signed
// reply certificates, with real Ed25519 on both client and node signatures.
func TestGatewayEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := gatewayCfg(24)
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	c.Drain(2 * time.Second)

	if c.Hub() == nil {
		t.Fatal("client hub never started")
	}
	if c.Metrics.ClientCommitted == 0 {
		t.Fatalf("no client request earned a reply certificate: %s", c.Metrics.Summary())
	}
	m := c.Metrics
	if m.Counter("gateway-verified") == 0 {
		t.Fatal("no request passed signature verification")
	}
	if m.Counter("gateway-proposed") == 0 {
		t.Fatal("gateway batches never reached the proposer")
	}
	if m.Counter("gateway-executed") == 0 {
		t.Fatal("no executed client transaction reported back to a gateway")
	}
	if m.Committed() == 0 {
		t.Fatalf("no transactions in the metrics window: %s", m.Summary())
	}
	assertConsistency(t, c, nil)
}

// TestGatewayDedupExactlyOnceCluster is the acceptance regression for
// idempotent retries at cluster level: the same signed request injected to
// every node of its group, retransmitted while in flight, and resubmitted to
// a DIFFERENT group after execution, executes exactly once. Every node's
// dedup window fills at execution, so the total gateway-executed count
// equals (unique requests) x (total nodes).
func TestGatewayDedupExactlyOnceCluster(t *testing.T) {
	t.Parallel()
	cfg := gatewayCfg(0)
	cfg.Gateway.SimClients = 0
	cfg.Gateway.Clients = 4
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	ck := c.ClientKeys[0]
	wl, err := workload.New(cfg.Workload, 123)
	if err != nil {
		t.Fatal(err)
	}
	txn := types.Transaction{Client: ck.ID, Nonce: 1, Payload: wl.Next(ck.ID).Payload}
	txn.Sig = ck.Sign(keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload))

	inject := func(at time.Duration, g int) {
		for j := 0; j < cfg.GroupSizes[g]; j++ {
			to := keys.NodeID{Group: g, Index: j}
			c.Net.Schedule(at, func() {
				req := &cluster.ClientRequest{Txn: txn}
				c.Nodes[to].HandleMessage(transport.Message{
					From: keys.NodeID{Group: -1, Index: int(ck.ID)},
					To:   to, Payload: req, Size: req.WireSize(),
				})
			})
		}
	}
	inject(100*time.Millisecond, 0) // fresh: leader admits, followers forward
	inject(150*time.Millisecond, 0) // in-flight retransmission: absorbed
	inject(2*time.Second, 1)        // post-execution, other group: cached Dup replies
	c.Run()
	c.Drain(2 * time.Second)

	totalNodes := 0
	for _, n := range cfg.GroupSizes {
		totalNodes += n
	}
	m := c.Metrics
	if got := m.Counter("gateway-executed"); got != int64(totalNodes) {
		t.Fatalf("unique request executed %d times per cluster (gateway-executed=%d, want %d): %s",
			got/int64(totalNodes), got, totalNodes, m.Summary())
	}
	if m.Counter("gateway-dedup-cached") == 0 {
		t.Fatal("post-execution resubmission never served a cached reply")
	}
	assertConsistency(t, c, nil)
}

// forgeFirst is a group leader behind a forger who sees every client request
// on its way and gets a forged copy of it — same client, nonce and payload, a
// corrupted signature — to the leader first.
type forgeFirst struct {
	*Node
	forged *int64
}

func (f forgeFirst) HandleMessage(msg transport.Message) {
	if m, ok := msg.Payload.(*cluster.ClientRequest); ok {
		txn := m.Txn
		txn.Sig = append([]byte(nil), txn.Sig...)
		txn.Sig[40] ^= 4
		req := &cluster.ClientRequest{Txn: txn}
		f.Node.HandleMessage(transport.Message{From: msg.From, To: msg.To, Payload: req, Size: req.WireSize()})
		*f.forged++
	}
	f.Node.HandleMessage(msg)
}

// TestGatewayForgedFirstCopiesCluster: verifying at the cut must not let a
// forgery squat an honest request's nonce. With a forged copy of every
// request reaching its leader just before the genuine one, every forgery is
// evicted at the cut, every genuine request executes exactly once, and no
// client has to time out and resubmit.
func TestGatewayForgedFirstCopiesCluster(t *testing.T) {
	t.Parallel()
	cfg := gatewayCfg(24)
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	var forged int64
	leaders := map[keys.NodeID]cluster.Node{}
	for g := range cfg.GroupSizes {
		id := keys.NodeID{Group: g, Index: 0}
		leaders[id] = c.Nodes[id]
		f := forgeFirst{Node: c.Nodes[id].(*Node), forged: &forged}
		c.Nodes[id] = f
		c.Net.SetHandler(id, f)
	}
	c.Run()
	c.Drain(2 * time.Second)
	for id, n := range leaders {
		c.Nodes[id] = n
	}

	m := c.Metrics
	totalNodes := int64(0)
	for _, n := range cfg.GroupSizes {
		totalNodes += int64(n)
	}
	if m.ClientCommitted == 0 || forged == 0 {
		t.Fatalf("committed %d requests behind %d forgeries: %s", m.ClientCommitted, forged, m.Summary())
	}
	if m.ClientResubmitted != 0 || m.ClientGaveup != 0 {
		t.Fatalf("forgeries delayed clients: %d resubmits, %d gave up", m.ClientResubmitted, m.ClientGaveup)
	}
	if got := m.Counter("gateway-verify-fail"); got != forged {
		t.Fatalf("gateway-verify-fail = %d, want one per forgery (%d)", got, forged)
	}
	if got := m.Counter("gateway-executed"); got != m.ClientCommitted*totalNodes {
		t.Fatalf("gateway-executed = %d, want %d requests x %d nodes", got, m.ClientCommitted, totalNodes)
	}
	assertConsistency(t, c, nil)
}

// TestGatewayAdmissionLoad10k floods the cluster with 10,000 closed-loop
// clients against a small intake queue: admission control must engage
// (explicit overload rejections), clients must converge through timeout
// resubmission, and the run must neither deadlock nor grow queues without
// bound.
func TestGatewayAdmissionLoad10k(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := gatewayCfg(10000)
	cfg.TrustAll = true // modeled-cost crypto: the load is the point here
	cfg.RunFor = 2 * time.Second
	cfg.Warmup = 500 * time.Millisecond
	cfg.Gateway.QueueLimit = 512
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	c.Drain(2 * time.Second)

	m := c.Metrics
	if m.ClientCommitted < 1000 {
		t.Fatalf("only %d of 10k clients' requests certified under load: %s", m.ClientCommitted, m.Summary())
	}
	if m.Counter("gateway-rejected-overload") == 0 {
		t.Fatalf("10k clients against a 512 queue never tripped admission control: %s", m.Summary())
	}
	if peak := m.Counter("gateway-queue-peak"); peak > int64(cfg.Gateway.QueueLimit) {
		t.Fatalf("intake queue peaked at %d, beyond its %d bound", peak, cfg.Gateway.QueueLimit)
	}
	assertConsistency(t, c, nil)
}

// TestGatewayFingerprints pins the determinism contract for gateway-driven
// load: the whole client pipeline — signing, intake, inline verification,
// admission control, adaptive batching, reply certificates, resubmission
// timers — runs on the emulator event loop, so a fixed-seed run commits one
// ledger on every machine. The rows are the two runs of the retired
// BENCH_gateway.json (3x4, MassBFT, ycsb-a, seed 1, Run then Drain(2s)) with
// its counters carried over verbatim, plus the observer's ledger height, head
// and state hash. A host-only change reproduces every value; a change that
// means to move admission, dedup or batching re-captures them and says so.
func TestGatewayFingerprints(t *testing.T) {
	t.Parallel()
	steady := gatewayCfg(64) // real Ed25519 on requests and receipts, no admission pressure
	overload := gatewayCfg(2000)
	overload.TrustAll = true // modeled-cost crypto: admission is the point here
	overload.RunFor = 2 * time.Second
	overload.Gateway.QueueLimit = 512

	for _, tc := range []struct {
		name        string
		cfg         cluster.Config
		counters    map[string]int64
		committed   int64 // certified at the clients
		resubmits   int64
		gaveUp      int64
		height      uint64
		head, state string
	}{
		{
			name: "steady", cfg: steady,
			counters:  map[string]int64{"gateway-verified": 3067, "gateway-executed": 36804},
			committed: 3067,
			height:    246,
			head:      "37e45f0a747661071645c423a33b677aac4c92e928131d275da1f5d0c2bbd93c",
			state:     "a9d3d65d5c97a230e807ae00e0e3c804bf4b88394b3b68a6ca94b6954c2e0bfd",
		},
		{
			name: "overload", cfg: overload,
			counters: map[string]int64{
				"gateway-rejected-overload": 1358,
				"gateway-queue-peak":        512,
				"gateway-dedup-cached":      0,
			},
			committed: 25007, resubmits: 712, gaveUp: 0,
			height: 1251,
			head:   "e4b6924d3d47a94bb579b0074a9d3497aba020bae95774b030a8fb0ad522ecc3",
			state:  "7baa6210bd1c441f49ed9370fadf34001d5ebd4a27f359384d57293481a96f01",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(tc.cfg, NewNode)
			if err != nil {
				t.Fatal(err)
			}
			c.Run()
			c.Drain(2 * time.Second)
			hub := c.Metrics
			if hub.ClientCommitted != tc.committed || hub.ClientResubmitted != tc.resubmits || hub.ClientGaveup != tc.gaveUp {
				t.Errorf("clients: committed %d resubmits %d gave-up %d, want %d %d %d",
					hub.ClientCommitted, hub.ClientResubmitted, hub.ClientGaveup, tc.committed, tc.resubmits, tc.gaveUp)
			}
			for name, want := range tc.counters {
				if got := c.Metrics.Counter(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			led := c.Nodes[c.Cfg.Observer()].(*Node).Ledger()
			head, state := led.Head(), c.StateHash(c.Cfg.Observer())
			if led.Height() != tc.height || fmt.Sprintf("%x", head[:]) != tc.head ||
				fmt.Sprintf("%x", state[:]) != tc.state {
				t.Errorf("observer ledger: height %d head %x state %x, want %d %s %s",
					led.Height(), head[:], state[:], tc.height, tc.head, tc.state)
			}
			assertConsistency(t, c, nil)
		})
	}
}

// TestGatewayGroupCrashConvergence kills a whole group mid-run: clients
// whose in-flight requests targeted it must converge anyway, by timing out
// and resubmitting to the next group (at-least-once across groups), while
// requests already executed keep their f+1 certificates valid.
func TestGatewayGroupCrashConvergence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := gatewayCfg(24)
	cfg.RunFor = 6 * time.Second
	cfg.TakeoverTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	var beforeCrash int64
	c.Net.Schedule(2*time.Second, func() { beforeCrash = c.Metrics.ClientCommitted })
	c.ScheduleGroupCrash(2*time.Second, 0)
	c.Run()
	c.Drain(2 * time.Second)

	hub := c.Metrics
	if beforeCrash == 0 {
		t.Fatalf("no client certificates before the crash: %s", c.Metrics.Summary())
	}
	if hub.ClientCommitted <= beforeCrash {
		t.Fatalf("clients stopped converging after group 0 died (%d before, %d total): %s",
			beforeCrash, hub.ClientCommitted, c.Metrics.Summary())
	}
	if hub.ClientResubmitted == 0 {
		t.Fatal("no client ever resubmitted to another group")
	}
	assertConsistency(t, c, map[int]bool{0: true})
}
