package massbft

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"massbft/internal/forensics"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/types"
)

func statusWithTrail(g, i int, height uint64, hashes map[uint64]string, state string) NodeStatus {
	st := NodeStatus{Group: g, Index: i, Height: height, State: state}
	for h, hash := range hashes {
		st.Trail = append(st.Trail, TrailPoint{Height: h, Hash: hash})
	}
	sort.Slice(st.Trail, func(a, b int) bool { return st.Trail[a].Height < st.Trail[b].Height })
	if h, ok := hashes[height]; ok {
		st.Head = h
	}
	return st
}

// trailHashes names blocks 1..n as 64 hex digits; from height fork on
// (fork 0: never) they are another branch's.
func trailHashes(n, fork uint64) map[uint64]string {
	m := map[uint64]string{}
	for h := uint64(1); h <= n; h++ {
		branch := 0
		if fork != 0 && h >= fork {
			branch = 0xf
		}
		m[h] = fmt.Sprintf("%x%063x", branch, h)
	}
	return m
}

var (
	state0 = strings.Repeat("0", 64)
	state1 = strings.Repeat("1", 64)
	state2 = strings.Repeat("2", 64)
)

func TestClassifyStatusesConverged(t *testing.T) {
	trail := trailHashes(10, 0)
	sts := []NodeStatus{
		statusWithTrail(0, 0, 10, trail, state1),
		statusWithTrail(0, 1, 10, trail, state1),
		statusWithTrail(1, 0, 10, trail, state1),
	}
	sum := ClassifyStatuses(sts)
	if sum.Verdict != AgreementConverged || sum.Peers != 3 || sum.MaxHeight != 10 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestClassifyStatusesWedged(t *testing.T) {
	sts := []NodeStatus{
		statusWithTrail(0, 0, 10, trailHashes(10, 0), state1),
		statusWithTrail(1, 0, 9, trailHashes(9, 0), state0),
	}
	sum := ClassifyStatuses(sts)
	if sum.Verdict != AgreementWedged {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.FirstDivergentHeight != 10 || len(sum.Laggards) != 1 || !strings.Contains(sum.Laggards[0], "1,0@9") {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestClassifyStatusesForked(t *testing.T) {
	sts := []NodeStatus{
		statusWithTrail(0, 0, 10, trailHashes(10, 0), state1),
		statusWithTrail(1, 0, 10, trailHashes(10, 9), state2),
	}
	sum := ClassifyStatuses(sts)
	if sum.Verdict != AgreementForked || sum.FirstDivergentHeight != 9 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestClassifyStatusesStateForked(t *testing.T) {
	trail := trailHashes(10, 0)
	sts := []NodeStatus{
		statusWithTrail(0, 0, 10, trail, state1),
		statusWithTrail(1, 0, 10, trail, state2), // same chain, drifted state
	}
	sum := ClassifyStatuses(sts)
	if sum.Verdict != AgreementForked || sum.FirstDivergentHeight != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if !strings.Contains(sum.Detail, "state") {
		t.Fatalf("detail = %q", sum.Detail)
	}
}

// branchChain seals n blocks; from height fork on (fork 0: never) the
// entries' digests are salted, so the blocks are another branch's. Below
// fork it shares base's blocks.
func branchChain(base *ledger.Ledger, n, fork uint64) *ledger.Ledger {
	l := ledger.New()
	for h := uint64(1); h <= n; h++ {
		if base != nil && h < fork {
			l.AppendBlock(base.Block(h))
			continue
		}
		var dig keys.Digest
		dig[0], dig[1] = byte(h), byte(h>>8)
		if fork != 0 && h >= fork {
			dig[2] = 0xaa
		}
		l.Append(types.EntryID{GID: int(h % 3), Seq: h}, dig, 1, 0, [32]byte{byte(h), dig[2]})
	}
	return l
}

// prefix is a ledger holding the first n blocks of l.
func prefix(l *ledger.Ledger, n uint64) *ledger.Ledger {
	p := ledger.New()
	for h := uint64(1); h <= n; h++ {
		p.AppendBlock(l.Block(h))
	}
	return p
}

// The status path and the ledger path are one classifier: random layouts
// whose heights lie within one trail window, with forks inside the window
// and occasional state drift, get the same verdict and first divergent
// height from Classify on the ledgers as from ClassifyStatuses on the
// snapshots Status publishes of them.
func TestClassifyStatusesMatchesLedgers(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	verdicts := map[AgreementVerdict]int{}
	for c := 0; c < 5000; c++ {
		top := uint64(rng.Intn(80))
		var fork uint64
		if top > 0 && rng.Intn(2) == 0 {
			fork = top - uint64(rng.Intn(int(min(top, trailWindow)))) // in top's window
		}
		branches := []*ledger.Ledger{branchChain(nil, top, 0)}
		branches = append(branches, branchChain(branches[0], top, fork))
		spread := 0
		if rng.Intn(2) == 0 {
			spread = rng.Intn(trailWindow)
		}
		n := 2 + rng.Intn(5)
		nls := make([]forensics.NodeLedger, n)
		sts := make([]NodeStatus, n)
		for i := range nls {
			h := top - min(top, uint64(rng.Intn(spread+1)))
			l := prefix(branches[rng.Intn(2)], h)
			var state [32]byte
			if h > 0 {
				state = l.Block(h).StateDigest
			}
			if rng.Intn(16) == 0 {
				state[31] ^= 1
			}
			id := keys.NodeID{Group: i % 3, Index: i / 3}
			nls[i] = forensics.NodeLedger{ID: id, Ledger: l, State: state, Live: true}
			sts[i] = NodeStatus{Group: id.Group, Index: id.Index}
			sts[i].setChain(l, state)
		}
		rep, sum := forensics.Classify(nls), ClassifyStatuses(sts)
		if rep.Verdict != sum.Verdict || rep.FirstDivergentHeight != sum.FirstDivergentHeight || sum.Peers != n {
			t.Fatalf("case %d (top %d, fork %d): ledgers %v; statuses %+v", c, top, fork, rep, sum)
		}
		verdicts[sum.Verdict]++
	}
	t.Logf("verdicts: %v", verdicts)
	if len(verdicts) != 3 {
		t.Fatalf("verdicts drawn: %v, want all three", verdicts)
	}
}

// A status file is external input: one whose state or trail is not what
// Status writes is censused but not judged, and never panics the check. Each
// malformed snapshot is of a chain forked inside the window, so judging it
// would not read converged.
func TestClassifyStatusesSkipsMalformed(t *testing.T) {
	canon := branchChain(nil, 40, 0)
	good := func(i int) NodeStatus {
		st := NodeStatus{Group: 0, Index: i}
		st.setChain(canon, [32]byte{1})
		return st
	}
	for _, tc := range []struct {
		name string
		mut  func(*NodeStatus)
	}{
		{"non-hex hash", func(st *NodeStatus) { st.Trail[5].Hash = "zz" + st.Trail[5].Hash[2:] }},
		{"short hash", func(st *NodeStatus) { st.Trail[5].Hash = st.Trail[5].Hash[:62] }},
		{"long hash", func(st *NodeStatus) { st.Trail[5].Hash += "00" }},
		{"non-hex state", func(st *NodeStatus) { st.State = "s1" }},
		{"short trail", func(st *NodeStatus) { st.Trail = st.Trail[1:] }},
		{"gapped trail", func(st *NodeStatus) { st.Trail[10].Height++ }},
		{"unsorted trail", func(st *NodeStatus) { st.Trail[3], st.Trail[4] = st.Trail[4], st.Trail[3] }},
		{"trail ends below height", func(st *NodeStatus) { st.Height++ }},
		{"trail ends above height", func(st *NodeStatus) { st.Height-- }},
		{"no trail", func(st *NodeStatus) { st.Trail = nil }},
		{"height 0 with a trail", func(st *NodeStatus) { st.Height = 0 }},
		{"largest height, no trail", func(st *NodeStatus) { st.Height, st.Trail = ^uint64(0), nil }},
	} {
		bad := NodeStatus{Group: 1, Index: 0}
		bad.setChain(branchChain(canon, 40, 20), [32]byte{2})
		tc.mut(&bad)
		if evidence(bad).Live {
			t.Errorf("%s: judged", tc.name)
		}
		sum := ClassifyStatuses([]NodeStatus{good(0), good(1), bad})
		if sum.Verdict != AgreementConverged || sum.Peers != 2 || sum.MaxHeight != 40 {
			t.Errorf("%s: summary %+v, want converged over the 2 well-formed snapshots", tc.name, sum)
		}
	}
}
