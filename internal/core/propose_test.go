package core

import (
	"testing"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/types"
)

// TestSettleProposalReturnsLostTransactions: when a slot this node proposed
// delivers other bytes, its proposal is lost and settleProposal hands the
// proposal's transactions back to intake — a gateway leader puts them at the
// head of its queue, a gateway follower forwards each to its leader on the
// priority lane, a rate-limited node adds them to its backlog and a
// saturated one drops them (it proposes at will). Each loss counts one
// proposal-retry; delivering the node's own bytes counts nothing.
func TestSettleProposalReturnsLostTransactions(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Gateway.Clients = 4
	gw, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	cfg = smallCfg()
	cfg.GroupRate = []float64{1000}
	rated, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	txns := []types.Transaction{{Client: 1, Nonce: 1}, {Client: 2, Nonce: 1}, {Client: 1, Nonce: 2}}
	leader := keys.NodeID{Group: 0, Index: 0}
	const slot = 7

	for _, tc := range []struct {
		name     string
		c        *cluster.Cluster
		id       keys.NodeID
		forwards bool // the lost transactions leave the node
		check    func(n *Node, sent *recordingEndpoint, backlog float64)
	}{
		{"gateway leader", gw, leader, false, func(n *Node, sent *recordingEndpoint, _ float64) {
			if got := n.ctx.Gateway.Pending(); got != len(txns) {
				t.Errorf("gateway leader: %d transactions queued, want %d", got, len(txns))
			}
		}},
		{"gateway follower", gw, keys.NodeID{Group: 0, Index: 1}, true, func(n *Node, sent *recordingEndpoint, _ float64) {
			if len(sent.sent) != len(txns) {
				t.Fatalf("gateway follower: %d sends, want one per transaction", len(sent.sent))
			}
			for i, p := range sent.sent {
				m, ok := p.(*cluster.ClientRequest)
				if !ok || m.Txn.Client != txns[i].Client || m.Txn.Nonce != txns[i].Nonce || sent.to[i] != leader || !sent.priority[i] {
					t.Errorf("gateway follower: send %d is %T %+v to %v (priority %v), want transaction %d to %v on the priority lane",
						i, p, p, sent.to[i], sent.priority[i], i, leader)
				}
			}
			if got := n.ctx.Gateway.Pending(); got != 0 {
				t.Errorf("gateway follower: %d transactions queued at the follower", got)
			}
		}},
		{"rate-limited", rated, keys.NodeID{Group: 0, Index: 1}, false, func(n *Node, _ *recordingEndpoint, backlog float64) {
			if n.backlog != backlog+float64(len(txns)) {
				t.Errorf("rate-limited: backlog %v, want %v", n.backlog, backlog+float64(len(txns)))
			}
		}},
		{"saturated", rated, keys.NodeID{Group: 1, Index: 1}, false, func(n *Node, _ *recordingEndpoint, backlog float64) {
			if n.backlog != backlog {
				t.Errorf("saturated: backlog %v, want %v", n.backlog, backlog)
			}
		}},
	} {
		n := tc.c.Nodes[tc.id].(*Node)
		if (n.local.Leader(n.local.View()) == n.id) != (tc.id == leader) {
			t.Fatalf("%s: %v leads view %d", tc.name, n.local.Leader(n.local.View()), n.local.View())
		}
		sent := &recordingEndpoint{Endpoint: n.ctx.Net}
		n.ctx.Net = sent
		m := n.ctx.Metrics

		own := []byte("own proposal")
		n.proposed[slot] = &proposalSt{enc: own, txns: txns}
		retries := m.ProposalRetries
		if !n.settleProposal(slot, append([]byte(nil), own...)) || m.ProposalRetries != retries {
			t.Errorf("%s: own bytes not settled as its own (proposal-retries %+d)", tc.name, m.ProposalRetries-retries)
		}

		n.proposed[slot] = &proposalSt{enc: own, txns: txns}
		backlog := n.backlog
		if n.settleProposal(slot, []byte("another proposal")) {
			t.Errorf("%s: other bytes settled as its own", tc.name)
		}
		if m.ProposalRetries != retries+1 {
			t.Errorf("%s: proposal-retries %+d, want +1", tc.name, m.ProposalRetries-retries)
		}
		if n.proposed[slot] != nil {
			t.Errorf("%s: the lost proposal is still held", tc.name)
		}
		if !tc.forwards && len(sent.sent) != 0 {
			t.Errorf("%s: %d sends, want none", tc.name, len(sent.sent))
		}
		tc.check(n, sent, backlog)
	}
}
