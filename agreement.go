package massbft

import (
	"encoding/hex"
	"fmt"

	"massbft/internal/forensics"
	"massbft/internal/keys"
	"massbft/internal/ledger"
)

// trailWindow is how many of its latest block hashes a status snapshot
// carries: min(height, trailWindow), ending at the node's height.
const trailWindow = 32

// AgreementSummary is the compact verdict embedded in a massbft-node status
// file when the node is given its peers' status files (-peers-status): the
// process-deployment analogue of Cluster.AgreementReport.
type AgreementSummary struct {
	Verdict              AgreementVerdict `json:"verdict"`
	FirstDivergentHeight uint64           `json:"first_divergent_height,omitempty"`
	MinHeight            uint64           `json:"min_height"`
	MaxHeight            uint64           `json:"max_height"`
	// Peers is how many peer snapshots (self included) the verdict judged.
	Peers int `json:"peers"`
	// Laggards lists "g,i@height(-behind)" for nodes behind the frontier.
	Laggards []string `json:"laggards,omitempty"`
	// Detail is the human-readable rendering of the verdict.
	Detail string `json:"detail,omitempty"`
}

// ClassifyStatuses classifies agreement across massbft-node status
// snapshots with the classifier Cluster.AgreementReport uses
// (forensics.Classify). A process deployment has no whole ledgers to
// compare, only the trail window each node publishes, so each pair of
// snapshots is judged on the heights both trails hold: different hashes at
// a shared height classify as forked (the lowest such height is reported),
// differing heights as wedged, equal heights with differing state digests as
// forked (execution divergence).
//
// A laggard more than a trail window behind the frontier cannot be proven
// forked or clean from snapshots alone; it is classified wedged and left to
// the caller to investigate (e.g. by re-checking once the gap shrinks). A
// snapshot whose state or trail is not what Status writes — a hash that is
// not 64 hex digits, or a trail other than the full window ending at the
// snapshot's height — is censused but not judged. Callers decide which
// snapshots are live enough to judge — a stale file from a dead process
// should be filtered out beforehand.
func ClassifyStatuses(sts []NodeStatus) AgreementSummary {
	nls := make([]forensics.NodeLedger, len(sts))
	for i, st := range sts {
		nls[i] = evidence(st)
	}
	rep := forensics.Classify(nls)
	sum := AgreementSummary{
		Verdict:              rep.Verdict,
		FirstDivergentHeight: rep.FirstDivergentHeight,
		MinHeight:            rep.MinHeight,
		MaxHeight:            rep.MaxHeight,
		Detail:               rep.String(),
	}
	for _, nl := range nls {
		if nl.Live {
			sum.Peers++
		}
	}
	for _, st := range rep.Laggards {
		sum.Laggards = append(sum.Laggards, fmt.Sprintf("%d,%d@%d(-%d)", st.Group, st.Index, st.Height, st.Behind))
	}
	return sum
}

// evidence decodes one snapshot into the classifier's evidence, live only
// when its state and its whole trail window decode.
func evidence(st NodeStatus) forensics.NodeLedger {
	nl := forensics.NodeLedger{ID: keys.NodeID{Group: st.Group, Index: st.Index}, Trail: forensics.Window{Height: st.Height}}
	state, ok := decodeHash(st.State)
	nl.State = state
	if !ok || uint64(len(st.Trail)) != min(st.Height, trailWindow) {
		return nl
	}
	from := st.Height - uint64(len(st.Trail)) + 1
	hashes := make([]ledger.BlockHash, len(st.Trail))
	for i, tp := range st.Trail {
		if hashes[i], ok = decodeHash(tp.Hash); !ok || tp.Height != from+uint64(i) {
			return nl
		}
	}
	nl.Trail.Hashes, nl.Live = hashes, true
	return nl
}

func decodeHash(s string) (h [32]byte, ok bool) {
	if hex.DecodedLen(len(s)) != len(h) {
		return h, false
	}
	_, err := hex.Decode(h[:], []byte(s))
	return h, err == nil
}

// setChain fills a snapshot's chain fields from a node's ledger and state
// digest: height, head, state and the trail window.
func (st *NodeStatus) setChain(l *ledger.Ledger, state [32]byte) {
	st.Height = l.Height()
	head := l.Head()
	st.Head = hex.EncodeToString(head[:])
	st.State = hex.EncodeToString(state[:])
	for h := st.Height - min(st.Height, trailWindow) + 1; h <= st.Height; h++ {
		bh := l.Block(h).Hash()
		st.Trail = append(st.Trail, TrailPoint{Height: h, Hash: hex.EncodeToString(bh[:])})
	}
}
