// Package forensics classifies end-of-run disagreement between replica
// ledgers. A set of hash-chained ledgers can disagree in exactly two ways,
// and the distinction decides where to look for the bug:
//
//   - FORKED: two live nodes sealed *different* blocks at the same height.
//     The chains are irreconcilable — a safety violation in consensus,
//     ordering, or execution determinism. No amount of further draining can
//     heal a fork.
//
//   - WEDGED: every pair of live ledgers agrees block-for-block on their
//     common prefix, but some node stopped short of the longest chain. The
//     system is safe but a replica lost liveness — a recovery path (fetch,
//     repair, rejoin, failover) stalled or a retention window expired.
//     Draining longer may heal a wedge; a reproducible one is a liveness bug.
//
// The classifier works from each node's evidence: its whole ledger
// (simulator) or the window of latest block hashes its status snapshot
// carries (process deployment). A pair of nodes is judged only on the
// heights both hold. Hash chaining makes agreement monotone in height
// (blocks equal at h imply the whole prefix up to h is equal), so the first
// divergent height is found by bisection in O(log height) block comparisons
// per node pair, and checking consecutive pairs in height order suffices to
// certify the whole set: if a agrees with b through a's height and b agrees
// with c through b's height (heights ascending), then a agrees with c
// through a's height. Windows of one width keep that true: every window
// ends at its node's height, so b's window covers whatever a's and c's
// share, and two neighbours that do not overlap leave no farther pair that
// does.
package forensics

import (
	"fmt"
	"sort"
	"strings"

	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// Verdict is the agreement classification for a set of replica ledgers.
type Verdict string

const (
	// Converged: all live nodes hold identical ledgers and state digests.
	Converged Verdict = "converged"
	// Wedged: identical common prefixes, but at least one live node is
	// behind the longest chain (liveness gap; draining may heal it).
	Wedged Verdict = "wedged"
	// Forked: two live nodes sealed different blocks at the same height
	// (safety violation; unhealable).
	Forked Verdict = "forked"
)

// NodeLedger is one replica's evidence: its whole Ledger or, when Ledger is
// nil, the Trail window of a status snapshot; its post-drain state digest;
// and whether the node is live (crashed, administratively removed or
// unreadable nodes are reported but never gate the verdict).
type NodeLedger struct {
	ID     keys.NodeID
	Ledger *ledger.Ledger
	Trail  Window
	State  [32]byte
	Live   bool
}

// Window is the chain evidence a status snapshot carries: the hashes of the
// blocks at heights Height-len(Hashes)+1 through Height.
type Window struct {
	Height uint64
	Hashes []ledger.BlockHash
}

func (nl NodeLedger) height() uint64 {
	if nl.Ledger != nil {
		return nl.Ledger.Height()
	}
	return nl.Trail.Height
}

// low is the lowest height the evidence holds: 1 for a whole ledger.
func (nl NodeLedger) low() uint64 {
	if nl.Ledger != nil {
		return 1
	}
	return nl.Trail.Height - uint64(len(nl.Trail.Hashes)) + 1
}

// hash is the block hash at height h, which must lie in [low, height].
func (nl NodeLedger) hash(h uint64) ledger.BlockHash {
	if nl.Ledger != nil {
		return nl.Ledger.Block(h).Hash()
	}
	return nl.Trail.Hashes[h-nl.low()]
}

func (nl NodeLedger) head() ledger.BlockHash {
	if nl.Ledger != nil {
		return nl.Ledger.Head()
	}
	if n := len(nl.Trail.Hashes); n > 0 {
		return nl.Trail.Hashes[n-1]
	}
	return ledger.BlockHash{}
}

// NodeStatus is the per-node summary embedded in a Report.
type NodeStatus struct {
	Group, Index int
	Live         bool
	Height       uint64
	Head         ledger.BlockHash
	State        [32]byte
	// Behind is MaxHeight - Height over live nodes (0 when at the frontier).
	Behind uint64
}

// Branch is one side of a fork: the distinct block sealed at the first
// divergent height, with commit provenance (which consensus entry the block
// seals, with what effects; known from a ledger, zero from a window) and the
// live nodes holding it.
type Branch struct {
	Hash        ledger.BlockHash
	Entry       types.EntryID
	EntryDigest keys.Digest
	StateDigest [32]byte
	Holders     []keys.NodeID
}

// Report is the classified outcome of an agreement check.
type Report struct {
	Verdict Verdict
	// FirstDivergentHeight is the lowest height at which live ledgers
	// disagree: for Forked, the bisected height where different blocks were
	// sealed; for Wedged, the first height missing on the shortest ledger
	// (MinHeight+1). Zero when Converged.
	FirstDivergentHeight uint64
	// MinHeight and MaxHeight span the live nodes' sealed heights.
	MinHeight, MaxHeight uint64
	// Branches holds the conflicting blocks at FirstDivergentHeight
	// (Forked only), most holders first.
	Branches []Branch
	// Laggards lists live nodes behind MaxHeight (Wedged only), furthest
	// behind first.
	Laggards []NodeStatus
	// StateMismatch lists live nodes whose state digest disagrees with the
	// rest despite identical ledgers — execution-layer divergence that the
	// chain itself cannot show. Classified as Forked with
	// FirstDivergentHeight 0.
	StateMismatch []keys.NodeID
	// Nodes is the full per-node census, dead nodes included.
	Nodes []NodeStatus
}

// Classify walks the given evidence and returns the agreement report. Only
// live nodes participate in the verdict; an empty live set is vacuously
// Converged.
func Classify(nodes []NodeLedger) Report {
	rep := Report{Verdict: Converged}
	var live []NodeLedger
	for _, nl := range nodes {
		if nl.Live {
			live = append(live, nl)
		}
	}
	// Height census over live nodes first: the per-node Behind field and the
	// wedge check both need MaxHeight.
	for i, nl := range live {
		h := nl.height()
		if i == 0 || h < rep.MinHeight {
			rep.MinHeight = h
		}
		if h > rep.MaxHeight {
			rep.MaxHeight = h
		}
	}
	for _, nl := range nodes {
		st := NodeStatus{Group: nl.ID.Group, Index: nl.ID.Index, Live: nl.Live,
			Height: nl.height(), Head: nl.head(), State: nl.State}
		if nl.Live && st.Height < rep.MaxHeight {
			st.Behind = rep.MaxHeight - st.Height
		}
		rep.Nodes = append(rep.Nodes, st)
	}
	if len(live) == 0 {
		return rep
	}

	// Fork scan: consecutive pairs in ascending height order certify the
	// whole set (see the package comment for why). Track the lowest
	// divergent height over all pairs — the earliest safety violation is
	// the one to root-cause; everything after it is fallout.
	sort.SliceStable(live, func(i, j int) bool {
		return live[i].height() < live[j].height()
	})
	divergeAt := uint64(0)
	for i := 1; i < len(live); i++ {
		if h := firstDiff(live[i-1], live[i]); h != 0 && (divergeAt == 0 || h < divergeAt) {
			divergeAt = h
		}
	}
	if divergeAt != 0 {
		rep.Verdict = Forked
		rep.FirstDivergentHeight = divergeAt
		rep.Branches = branchesAt(live, divergeAt)
		return rep
	}

	if rep.MinHeight != rep.MaxHeight {
		rep.Verdict = Wedged
		rep.FirstDivergentHeight = rep.MinHeight + 1
		for _, st := range rep.Nodes {
			if st.Live && st.Behind > 0 {
				rep.Laggards = append(rep.Laggards, st)
			}
		}
		sort.SliceStable(rep.Laggards, func(i, j int) bool {
			return rep.Laggards[i].Behind > rep.Laggards[j].Behind
		})
		return rep
	}

	// Identical chains at identical heights. Cross-check the state digests:
	// the ledger seals a StateDigest per block, so this should be impossible
	// — but a state store diverging *after* its last seal would be invisible
	// to the chain walk, and silent impossibilities are how bugs hide.
	counts := map[[32]byte]int{}
	for _, nl := range live {
		counts[nl.State]++
	}
	if len(counts) > 1 {
		best, bn := [32]byte{}, 0
		for s, c := range counts {
			if c > bn {
				best, bn = s, c
			}
		}
		for _, nl := range live {
			if nl.State != best {
				rep.StateMismatch = append(rep.StateMismatch, nl.ID)
			}
		}
		rep.Verdict = Forked
	}
	return rep
}

// firstDiff returns the lowest height both a and b hold (a is the shorter)
// where they sealed different blocks, or 0 if they agree on every shared
// height. Prefix equality is monotone under hash chaining (equal blocks at h
// certify equal prefixes), so a binary search over block-hash comparisons
// suffices.
func firstDiff(a, b NodeLedger) uint64 {
	lo, hi := max(a.low(), b.low()), a.height()
	if lo > hi || a.hash(hi) == b.hash(hi) {
		return 0
	}
	for lo < hi { // invariant: blocks differ at hi
		mid := lo + (hi-lo)/2
		if a.hash(mid) == b.hash(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// branchesAt groups the live nodes that hold height h by the block they
// sealed there, capturing each branch's commit provenance.
func branchesAt(live []NodeLedger, h uint64) []Branch {
	byHash := map[ledger.BlockHash]*Branch{}
	var order []ledger.BlockHash
	for _, nl := range live {
		if h < nl.low() || h > nl.height() {
			continue
		}
		hash := nl.hash(h)
		br := byHash[hash]
		if br == nil {
			br = &Branch{Hash: hash}
			if nl.Ledger != nil {
				b := nl.Ledger.Block(h)
				br.Entry, br.EntryDigest, br.StateDigest = b.Entry, b.EntryDigest, b.StateDigest
			}
			byHash[hash] = br
			order = append(order, hash)
		}
		br.Holders = append(br.Holders, nl.ID)
	}
	out := make([]Branch, 0, len(order))
	for _, hash := range order {
		out = append(out, *byHash[hash])
	}
	sort.SliceStable(out, func(i, j int) bool {
		return len(out[i].Holders) > len(out[j].Holders)
	})
	return out
}

// String renders the report as a one-paragraph verdict suitable for demo
// output and CI logs.
func (r Report) String() string {
	live := 0
	for _, st := range r.Nodes {
		if st.Live {
			live++
		}
	}
	switch r.Verdict {
	case Converged:
		return fmt.Sprintf("converged: %d live nodes, height %d", live, r.MaxHeight)
	case Wedged:
		var lag []string
		for _, st := range r.Laggards {
			lag = append(lag, fmt.Sprintf("N%d,%d@%d(-%d)", st.Group, st.Index, st.Height, st.Behind))
		}
		return fmt.Sprintf("wedged: identical prefixes, %d/%d live nodes behind; first missing height %d (min %d < max %d); laggards: %s",
			len(r.Laggards), live, r.FirstDivergentHeight, r.MinHeight, r.MaxHeight, strings.Join(lag, " "))
	case Forked:
		if len(r.Branches) == 0 {
			var ids []string
			for _, id := range r.StateMismatch {
				ids = append(ids, fmt.Sprintf("N%d,%d", id.Group, id.Index))
			}
			return fmt.Sprintf("forked: identical ledgers but state digests disagree on %s (execution divergence)",
				strings.Join(ids, " "))
		}
		var bs []string
		for _, br := range r.Branches {
			sealing := "" // a window does not say which entry a block seals
			if br.Entry.Seq != 0 {
				sealing = fmt.Sprintf(" sealing entry g%d/%d", br.Entry.GID, br.Entry.Seq)
			}
			bs = append(bs, fmt.Sprintf("block %s%s (%d holders)", br.Hash, sealing, len(br.Holders)))
		}
		return fmt.Sprintf("forked: ledgers disagree at height %d: %s",
			r.FirstDivergentHeight, strings.Join(bs, " vs "))
	}
	return string(r.Verdict)
}

// Count books one verdict into the counters every agreement check shares:
// forked-detected or wedged-detected counts it, and
// agreement-first-div-height is its first divergent height (0 when
// converged).
func Count(c *metrics.Counts, v Verdict, firstDiv uint64) {
	c.AgreementFirstDivHeight = int64(firstDiv)
	switch v {
	case Forked:
		c.ForkedDetected++
	case Wedged:
		c.WedgedDetected++
	}
}
