package core

import (
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/transport"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// admitWatch is a group leader whose client intake is watched: it notes each
// request's admission time and, after the event that admitted it, the queue
// the gateway holds.
type admitWatch struct {
	*Node
	admit func(txn types.Transaction, pending int)
}

func (w admitWatch) HandleMessage(msg transport.Message) {
	w.Node.HandleMessage(msg)
	if m, ok := msg.Payload.(*cluster.ClientRequest); ok {
		w.admit(m.Txn, w.ctx.Gateway.Pending())
	}
}

// TestGatewayCutHonoursMaxWait: the leader cuts a gateway batch when the dual
// bound is due, not on the next batch tick. One group's leader takes signed
// requests in virtual time — singly at light load, then MaxBatch of them in
// one instant, then one more after an idle spell — and every request is
// proposed within MaxWait of its admission, the burst is cut in the event
// that fills the queue, and the request after the idle spell rides in the
// first entry proposed after it, with no empty heartbeat ahead of it.
func TestGatewayCutHonoursMaxWait(t *testing.T) {
	t.Parallel()
	cfg := gatewayCfg(0)
	cfg.Gateway.Clients = 64
	cfg.RunFor = 2 * time.Second
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	maxWait, idle := cfg.BatchTimeout, 5*cfg.BatchTimeout // the gateway's MaxWait is BatchTimeout
	wl, err := workload.New(cfg.Workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	id := keys.NodeID{Group: 0, Index: 0}
	leader := c.Nodes[id].(*Node)

	type key struct{ client, nonce uint64 }
	admitted := map[key]time.Duration{}
	proposed := map[key]time.Duration{}
	type proposal struct {
		at   time.Duration
		txns int
	}
	var props []proposal
	w := admitWatch{Node: leader, admit: func(txn types.Transaction, pending int) {
		k := key{txn.Client, txn.Nonce}
		if _, ok := admitted[k]; !ok {
			admitted[k] = c.Net.Now()
		}
		if pending >= cfg.MaxBatch {
			t.Errorf("%v: %d requests queued after the event that admitted client %d's, want a cut at %d",
				c.Net.Now(), pending, txn.Client, cfg.MaxBatch)
		}
	}}
	c.Nodes[id] = w
	c.Net.SetHandler(id, w)

	nonce := uint64(0)
	send := func(at time.Duration, ck *keys.ClientKey) key {
		nonce++
		txn := types.Transaction{Client: ck.ID, Nonce: nonce, Payload: wl.Next(ck.ID).Payload}
		txn.Sig = ck.Sign(keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload))
		req := &cluster.ClientRequest{Txn: txn}
		c.Net.Schedule(at, func() {
			w.HandleMessage(transport.Message{
				From: keys.NodeID{Group: -1, Index: int(ck.ID)}, To: id, Payload: req, Size: req.WireSize(),
			})
		})
		return key{txn.Client, txn.Nonce}
	}
	// Light load: one request every 7–9 ms, a batch of one or two.
	for k := 0; k < 60; k++ {
		send(600*time.Millisecond+time.Duration(k)*7*time.Millisecond+time.Duration(k%3)*time.Millisecond, c.ClientKeys[k%len(c.ClientKeys)])
	}
	// A burst of MaxBatch requests in one instant.
	burst := 1200*time.Millisecond + 500*time.Microsecond
	for k := 0; k < cfg.MaxBatch; k++ {
		send(burst, c.ClientKeys[k])
	}
	// The first empty heartbeat after the burst schedules the idle spell's
	// request half a tick before the next heartbeat is due.
	var late key
	c.OnTransition = func(nid keys.NodeID, tr cluster.Transition) {
		if nid != id || tr.Kind != cluster.TransPrePrepare {
			return
		}
		p := leader.proposed[tr.At]
		if p == nil {
			return
		}
		now := c.Net.Now()
		props = append(props, proposal{now, len(p.txns)})
		for _, txn := range p.txns {
			proposed[key{txn.Client, txn.Nonce}] = now
		}
		if len(p.txns) == 0 && now > burst && late == (key{}) {
			late = send(now+idle-cfg.BatchTimeout/2, c.ClientKeys[cfg.MaxBatch])
		}
	}
	c.Run()

	if late == (key{}) {
		t.Fatal("the leader proposed no heartbeat after the burst")
	}
	if len(admitted) != 60+cfg.MaxBatch+1 {
		t.Fatalf("%d requests admitted, want %d", len(admitted), 60+cfg.MaxBatch+1)
	}
	for k, at := range admitted {
		p, ok := proposed[k]
		switch {
		case !ok:
			t.Errorf("client %d nonce %d admitted at %v, never proposed", k.client, k.nonce, at)
		case p-at > maxWait:
			t.Errorf("client %d nonce %d admitted at %v, proposed at %v: waited %v, bound %v",
				k.client, k.nonce, at, p, p-at, maxWait)
		}
	}
	var last time.Duration // the last admission before the idle spell's
	for k, at := range admitted {
		if k != late {
			last = max(last, at)
		}
	}
	lateAt := admitted[late]
	if lateAt-last < idle {
		t.Fatalf("idle spell of %v before the late request, want at least %v", lateAt-last, idle)
	}
	for _, p := range props {
		if p.at >= lateAt && p.at < proposed[late] {
			t.Errorf("an entry of %d txns proposed at %v, between the late request's admission at %v and its proposal at %v",
				p.txns, p.at, lateAt, proposed[late])
		}
	}
}
