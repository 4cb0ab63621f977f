package cluster

import (
	"time"

	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/transport"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// VirtualTime maps the emulator's virtual clock (a duration since run start)
// onto a time.Time for components that take wall-clock-style timestamps (the
// gateway batcher, the client requester).
func VirtualTime(d time.Duration) time.Time { return time.Unix(0, int64(d)) }

// routeReply hands a simulated node's reply to the client hub, once one runs.
func (c *Cluster) routeReply(rep *ClientReply) {
	if c.hub != nil {
		c.hub.onReply(rep)
	}
}

// ClientHub drives closed-loop simulated clients through the gateway: each
// client signs a request, submits it to every member of its target group,
// collects f+1 matching signed replies (gateway.Requester), and only then
// issues its next request. Timeouts rotate the request to the next group.
// Everything runs on the emulator event loop, so hub-driven runs are as
// deterministic as direct-injection runs.
type ClientHub struct {
	c       *Cluster
	gen     workload.Workload
	clients []*simClient
	byID    map[uint64]*simClient
}

type simClient struct {
	key   *keys.ClientKey
	req   *gateway.Requester
	nonce uint64
	txn   types.Transaction
}

// clientFrom marks hub-injected messages: clients are not cluster nodes, so
// their transport origin uses group -1 (never matched by protocol logic).
func clientFrom(id uint64) keys.NodeID { return keys.NodeID{Group: -1, Index: int(id)} }

// StartClients wires n closed-loop clients (n is capped at the registered
// client count) and schedules their first submissions, staggered across two
// batch timeouts. RunUntil calls it automatically when
// Cfg.Gateway.SimClients is set; tests may call it directly before Run.
func (c *Cluster) StartClients(n int) *ClientHub {
	if c.hub != nil {
		return c.hub
	}
	if n > len(c.ClientKeys) {
		n = len(c.ClientKeys)
	}
	// The payload source is the configured workload under a seed distinct
	// from every group generator, so client-driven payloads never replay a
	// group's synthetic stream.
	gen, err := c.Cfg.newWorkload(len(c.Cfg.GroupSizes), c.Cfg.Seed+777777)
	if err != nil {
		panic(err) // New already built this workload once per group
	}
	h := &ClientHub{c: c, gen: gen, byID: make(map[uint64]*simClient)}
	ng := len(c.Cfg.GroupSizes)
	// How long a client waits for its f+1 reply certificate before
	// resubmitting to the next group.
	replyTimeout := 25 * c.Cfg.BatchTimeout
	// Certified-down oracle for submission rotation: the membership view of
	// the first live node in (group, index) order stands in for the gossip a
	// real client library would keep. When no group is dead, departed, or
	// standby the oracle never fires and rotation is byte-identical to the
	// oracle-free behavior.
	down := func(g int) bool {
		for gi, size := range c.Cfg.GroupSizes {
			for j := 0; j < size; j++ {
				id := keys.NodeID{Group: gi, Index: j}
				if !c.Net.Node(id).Crashed() {
					gd, ok := c.Nodes[id].(interface{ GroupDown(int) bool })
					return ok && gd.GroupDown(g)
				}
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		ck := c.ClientKeys[i]
		// Deterministic per-client timeout jitter (up to +50%) plus
		// exponential attempt backoff: with thousands of clients a shared
		// fixed timeout re-synchronizes every rejected client into retry
		// waves that all land on one leader in the same instant.
		jitter := time.Duration(ck.ID%101) * replyTimeout / 200
		sc := &simClient{
			key: ck,
			req: gateway.NewRequester(gateway.RequesterConfig{
				Client:  ck.ID,
				Groups:  ng,
				Faulty:  c.Reg.Faulty,
				Verify:  c.Reg.VerifyMemo,
				Timeout: replyTimeout + jitter,
				Down:    down,
			}),
		}
		h.clients = append(h.clients, sc)
		h.byID[ck.ID] = sc
		off := time.Duration(i) * 2 * c.Cfg.BatchTimeout / time.Duration(n)
		c.Net.Schedule(c.Net.Now()+off, func() { h.submitNew(sc) })
	}
	interval := replyTimeout / 2
	var tick func()
	tick = func() {
		h.tick()
		c.Net.Schedule(c.Net.Now()+interval, tick)
	}
	c.Net.Schedule(c.Net.Now()+interval, tick)
	c.hub = h
	return h
}

// Hub returns the running client hub, nil before StartClients.
func (c *Cluster) Hub() *ClientHub { return c.hub }

func (h *ClientHub) now() time.Time { return VirtualTime(h.c.Net.Now()) }

// submitNew signs the client's next request and begins its certificate
// collection.
func (h *ClientHub) submitNew(sc *simClient) {
	if h.c.Cfg.Draining {
		return
	}
	sc.nonce++
	base := h.gen.Next(sc.key.ID)
	txn := types.Transaction{Client: sc.key.ID, Nonce: sc.nonce, Payload: base.Payload}
	txn.Sig = sc.key.Sign(keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload))
	sc.txn = txn
	g := sc.req.Begin(sc.nonce, h.now())
	h.deliver(sc, g, false)
}

// deliver submits the client's current request to group g: the first attempt
// to a single member, retransmissions to the whole group
// (gateway.FirstTarget). Copies arrive after LAN latency plus a deterministic
// per-client microsecond skew that keeps thousands of simultaneous clients
// from landing on one node in a single burst; copies to crashed nodes are
// dropped, like a refused connection.
func (h *ClientHub) deliver(sc *simClient, g int, broadcast bool) {
	if g < 0 || g >= len(h.c.Cfg.GroupSizes) {
		return
	}
	txn := sc.txn
	from := clientFrom(sc.key.ID)
	size := h.c.Cfg.GroupSizes[g]
	lo, hi := 0, size
	if !broadcast {
		lo = gateway.FirstTarget(sc.key.ID, sc.nonce, size)
		hi = lo + 1
	}
	skew := time.Duration((sc.key.ID*131+sc.nonce*31)%1024) * time.Microsecond
	for j := lo; j < hi; j++ {
		to := keys.NodeID{Group: g, Index: j % size}
		h.c.Net.Schedule(h.c.Net.Now()+h.c.Cfg.Topology.Latency(g, g)+skew, func() {
			if h.c.Net.Node(to).Crashed() {
				return
			}
			req := &ClientRequest{Txn: txn}
			h.c.Nodes[to].HandleMessage(transport.Message{
				From: from, To: to, Payload: req, Size: req.WireSize(),
			})
		})
	}
}

// onReply feeds one node's reply into the owning client's requester; on an
// f+1 certificate the client immediately issues its next request. All the
// hub's clients check receipt signatures through the cluster registry's one
// memo, so an entry costs the hub f+1 verifications, not f+1 per client.
func (h *ClientHub) onReply(rep *ClientReply) {
	sc := h.byID[rep.Client]
	if sc == nil {
		return
	}
	done, _ := sc.req.OnReply(rep.Reply(), h.now())
	if done {
		h.c.Metrics.ClientCommitted++
		h.submitNew(sc)
	}
}

// tick drives every active requester's timeout: expired attempts rotate to
// the next group, exhausted ones are abandoned (the client moves on). A
// draining cluster stops retrying — the gateways flush what they already
// admitted, and no new load may interfere with quiescence.
func (h *ClientHub) tick() {
	if h.c.Cfg.Draining {
		return
	}
	now := h.now()
	for _, sc := range h.clients {
		if !sc.req.Active() {
			continue
		}
		resubmit, g, gaveUp := sc.req.OnTick(now)
		if resubmit {
			h.c.Metrics.ClientResubmitted++
			h.deliver(sc, g, true)
		}
		if gaveUp {
			h.c.Metrics.ClientGaveup++
			h.submitNew(sc)
		}
	}
}
