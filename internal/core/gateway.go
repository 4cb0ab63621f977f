package core

import (
	"bytes"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/types"
)

// onClientRequest is the node-side intake of one raw client request
// (DESIGN.md §10). Any group member may receive the client's broadcast: an
// executed duplicate is answered from the dedup window by whoever holds it,
// a fresh request is admitted by the current local leader, and followers
// forward the client's copy to the leader so clients never need to track
// views. Only client-origin copies (from.Group < 0, or the TCP gateway
// server's direct call) are forwarded — a forwarded copy that finds a stale
// view is dropped rather than bounced between two nodes that each believe
// the other leads.
func (n *Node) onClientRequest(from keys.NodeID, m *cluster.ClientRequest) {
	gw := n.ctx.Gateway
	if gw == nil {
		return
	}
	if gw.ServeCached(m.Txn.Client, m.Txn.Nonce) {
		return
	}
	if n.local.IsLeader() {
		// Admission errors are deliberate drops: the client's reply timeout
		// drives the retry, and the gateway counters record the reason.
		_ = gw.Submit(m.Txn, cluster.VirtualTime(n.now()))
		return
	}
	if from.Group >= 0 {
		return
	}
	if ld := n.local.Leader(n.local.View()); ld != n.id {
		n.ctx.Net.SendPriority(ld, m, m.WireSize())
	}
}

// validateProposal vets a local pre-prepare before this replica votes on it
// (pbft.Config.Validate): every embedded client transaction must carry a
// valid client signature over its own content. The leader's cut only binds
// that leader — a Byzantine one could otherwise fabricate transactions
// attributed to any client, have them certified with honest votes and
// answered with valid f+1 reply certificates; re-checked here, a forged
// batch never gathers the 2f+1 local commit shares its certificate needs.
// The per-txn cost is the signature verification the paper models as the
// dominant local-consensus cost (chargePrePrepare). Direct-injection runs
// (no gateway) carry no client signatures and skip the check. The leader
// accepts its own pre-prepare, cut from checked signatures, by its bytes.
func (n *Node) validateProposal(payload []byte) bool {
	gw := n.ctx.Gateway
	if gw == nil {
		return true
	}
	e := n.localEntry(payload)
	if e == nil {
		return false
	}
	if p := n.proposed[e.ID.Seq]; p != nil && bytes.Equal(p.enc, payload) || gw.VerifyTxns(e.Txns) {
		return true
	}
	n.ctx.Metrics.GatewayProposalReject++
	return false
}

// noteExecuted reports an executed entry's client transactions to the
// gateway. Every node records every entry's transactions in its dedup
// window — the window is effectively global, so a client resubmission to ANY
// group is absorbed with a cached reply instead of re-executing — while the
// fresh ReplyOK receipt, one signature for the whole entry, comes only from
// the nodes of the entry's origin group (f+1 of them form a client's
// certificate). Height and Result derive from the node's ledger, which every
// correct node reproduces bit-for-bit, so honest replies always match.
func (n *Node) noteExecuted(id types.EntryID, e *types.Entry) {
	gw := n.ctx.Gateway
	if gw == nil || len(e.Txns) == 0 {
		return
	}
	head := n.ledger.Head()
	gw.Executed(e.Txns, n.ledger.Height(), head[:8], id.GID == n.g)
}
