package forensics

import (
	"strings"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// buildLedger seals n synthetic blocks; salt perturbs the entry digest from
// height fork onward (fork=0 leaves the chain canonical), yielding chains
// that share exactly fork-1 blocks of common prefix.
func buildLedger(n uint64, fork uint64, salt byte) *ledger.Ledger {
	l := ledger.New()
	for h := uint64(1); h <= n; h++ {
		var dig keys.Digest
		dig[0] = byte(h)
		if fork != 0 && h >= fork {
			dig[1] = salt
		}
		var state [32]byte
		state[0], state[1] = byte(h), dig[1]
		l.Append(types.EntryID{GID: int(h % 3), Seq: h}, dig, 5, 1, state)
	}
	return l
}

func node(g, i int, l *ledger.Ledger) NodeLedger {
	var state [32]byte
	if l.Height() > 0 {
		state = l.Block(l.Height()).StateDigest
	}
	return NodeLedger{ID: keys.NodeID{Group: g, Index: i}, Ledger: l, State: state, Live: true}
}

func TestClassifyConverged(t *testing.T) {
	nodes := []NodeLedger{
		node(0, 0, buildLedger(40, 0, 0)),
		node(0, 1, buildLedger(40, 0, 0)),
		node(1, 0, buildLedger(40, 0, 0)),
	}
	rep := Classify(nodes)
	if rep.Verdict != Converged {
		t.Fatalf("verdict = %v, want converged: %v", rep.Verdict, rep)
	}
	if rep.FirstDivergentHeight != 0 || rep.MinHeight != 40 || rep.MaxHeight != 40 {
		t.Fatalf("unexpected converged report: %+v", rep)
	}
}

func TestClassifyWedged(t *testing.T) {
	nodes := []NodeLedger{
		node(0, 0, buildLedger(40, 0, 0)),
		node(0, 1, buildLedger(40, 0, 0)),
		node(1, 0, buildLedger(25, 0, 0)), // identical prefix, stopped short
	}
	// A wedged node's live state digest lags too.
	rep := Classify(nodes)
	if rep.Verdict != Wedged {
		t.Fatalf("verdict = %v, want wedged: %v", rep.Verdict, rep)
	}
	if rep.FirstDivergentHeight != 26 {
		t.Fatalf("first missing height = %d, want 26", rep.FirstDivergentHeight)
	}
	if len(rep.Laggards) != 1 || rep.Laggards[0].Group != 1 || rep.Laggards[0].Behind != 15 {
		t.Fatalf("laggards = %+v", rep.Laggards)
	}
	if !strings.Contains(rep.String(), "wedged") {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestClassifyForked(t *testing.T) {
	nodes := []NodeLedger{
		node(0, 0, buildLedger(40, 0, 0)),
		node(0, 1, buildLedger(40, 0, 0)),
		node(1, 0, buildLedger(38, 17, 0xAA)), // forks at height 17, shorter
		node(1, 1, buildLedger(38, 17, 0xAA)),
	}
	rep := Classify(nodes)
	if rep.Verdict != Forked {
		t.Fatalf("verdict = %v, want forked: %v", rep.Verdict, rep)
	}
	if rep.FirstDivergentHeight != 17 {
		t.Fatalf("first divergent height = %d, want 17 (bisection)", rep.FirstDivergentHeight)
	}
	if len(rep.Branches) != 2 {
		t.Fatalf("branches = %+v", rep.Branches)
	}
	for _, br := range rep.Branches {
		if len(br.Holders) != 2 {
			t.Fatalf("branch holders = %+v", br)
		}
		if br.Entry.Seq != 17 {
			t.Fatalf("branch provenance entry = %+v, want seq 17", br.Entry)
		}
	}
	if rep.Branches[0].Hash == rep.Branches[1].Hash {
		t.Fatal("branches report identical blocks")
	}
	if !strings.Contains(rep.String(), "height 17") {
		t.Fatalf("String() = %q", rep.String())
	}
}

// A fork strictly above the shortest ledger's height must still be found:
// the shortest chain agrees with both branches, only the two tall chains
// disagree with each other.
func TestClassifyForkAboveShortestPrefix(t *testing.T) {
	nodes := []NodeLedger{
		node(0, 0, buildLedger(10, 0, 0)), // short, canonical
		node(1, 0, buildLedger(30, 20, 0xBB)),
		node(2, 0, buildLedger(30, 0, 0)),
	}
	rep := Classify(nodes)
	if rep.Verdict != Forked {
		t.Fatalf("verdict = %v, want forked: %v", rep.Verdict, rep)
	}
	if rep.FirstDivergentHeight != 20 {
		t.Fatalf("first divergent height = %d, want 20", rep.FirstDivergentHeight)
	}
}

func TestClassifyDeadNodesExcluded(t *testing.T) {
	forked := node(1, 0, buildLedger(40, 9, 0xCC))
	forked.Live = false // crashed: its evidence is reported, never judged
	nodes := []NodeLedger{
		node(0, 0, buildLedger(40, 0, 0)),
		node(0, 1, buildLedger(40, 0, 0)),
		forked,
	}
	rep := Classify(nodes)
	if rep.Verdict != Converged {
		t.Fatalf("verdict = %v, want converged (dead node excluded): %v", rep.Verdict, rep)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("census dropped a node: %+v", rep.Nodes)
	}
}

func TestClassifyStateMismatch(t *testing.T) {
	a := node(0, 0, buildLedger(12, 0, 0))
	b := node(0, 1, buildLedger(12, 0, 0))
	c := node(1, 0, buildLedger(12, 0, 0))
	c.State[31] ^= 1 // identical chain, drifted state store
	rep := Classify([]NodeLedger{a, b, c})
	if rep.Verdict != Forked {
		t.Fatalf("verdict = %v, want forked (state mismatch): %v", rep.Verdict, rep)
	}
	if len(rep.StateMismatch) != 1 || rep.StateMismatch[0] != c.ID {
		t.Fatalf("state mismatch = %+v", rep.StateMismatch)
	}
	if rep.FirstDivergentHeight != 0 || len(rep.Branches) != 0 {
		t.Fatalf("state-only fork should carry no chain branches: %+v", rep)
	}
}

func TestClassifyEmptyAndSingle(t *testing.T) {
	if rep := Classify(nil); rep.Verdict != Converged {
		t.Fatalf("empty set verdict = %v", rep.Verdict)
	}
	rep := Classify([]NodeLedger{node(0, 0, buildLedger(5, 0, 0))})
	if rep.Verdict != Converged || rep.MaxHeight != 5 {
		t.Fatalf("single-node verdict = %+v", rep)
	}
}

// Every check books its verdict the same way: each forked or wedged one is
// counted, and the first divergent height is the latest verdict's, 0 once
// converged.
func TestCountBooksTheLatestVerdict(t *testing.T) {
	var c metrics.Counts
	for _, step := range []struct {
		v                    Verdict
		firstDiv             uint64
		forked, wedged, divH int64
	}{
		{Wedged, 26, 0, 1, 26},
		{Converged, 0, 0, 1, 0},
		{Forked, 17, 1, 1, 17},
	} {
		Count(&c, step.v, step.firstDiv)
		if c.ForkedDetected != step.forked || c.WedgedDetected != step.wedged || c.AgreementFirstDivHeight != step.divH {
			t.Fatalf("after %s@%d: forked %d wedged %d first-div %d, want %d %d %d", step.v, step.firstDiv,
				c.ForkedDetected, c.WedgedDetected, c.AgreementFirstDivHeight, step.forked, step.wedged, step.divH)
		}
	}
}
