package core

import (
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/types"
)

const ms = time.Millisecond

func TestBackoffLadder(t *testing.T) {
	t.Parallel()
	for attempt, want := range []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 1600 * ms, 1600 * ms} {
		if got := backoff(100*ms, attempt); got != want {
			t.Errorf("backoff(100ms, %d) = %v, want %v", attempt, got, want)
		}
	}
}

func TestRetryClock(t *testing.T) {
	t.Parallel()
	const since, patience, base = 1000 * ms, 300 * ms, 100 * ms
	var r retry
	steps := []struct {
		now   time.Duration
		ready bool // before booking
		book  bool
		index int
	}{
		{now: since + patience - 1, ready: false},                  // patience not yet served
		{now: since + patience, ready: true, book: true, index: 0}, // first attempt
		{now: since + patience + base - 1, ready: false},           // backoff gate: base << 0
		{now: since + patience + base, ready: true, book: true, index: 1},
		{now: since + patience + 3*base - 1, ready: false}, // base << 1 after the second
		{now: since + patience + 3*base, ready: true, book: true, index: 2},
	}
	for i, s := range steps {
		if got := r.ready(s.now, since, patience); got != s.ready {
			t.Fatalf("step %d: ready(%v) = %v, want %v", i, s.now, got, s.ready)
		}
		if s.book {
			if got := r.next(s.now, base); got != s.index {
				t.Fatalf("step %d: next returned attempt %d, want %d", i, got, s.index)
			}
		}
	}
	// Evidence that appears later restarts the patience even on a quiet clock.
	r.reset()
	if r != (retry{}) {
		t.Fatalf("reset left %+v", r)
	}
	if r.ready(since+patience, since+1, patience) {
		t.Fatal("ready ignored the patience gate")
	}
}

// bareNode is a Node with just enough state for the rotation and retention
// helpers: no simulator, no PBFT instances.
func bareNode(sizes []int, id keys.NodeID) *Node {
	n := &Node{
		cfg:     &cluster.Config{GroupSizes: sizes},
		id:      id,
		g:       id.Group,
		ng:      len(sizes),
		streams: make([]streamSt, len(sizes)),
		archive: make(map[types.EntryID]*archived),
	}
	for g := range n.streams {
		n.streams[g] = newStream()
	}
	return n
}

func TestLANRotation(t *testing.T) {
	t.Parallel()
	for size := 1; size <= 7; size++ {
		for own := 0; own < size; own++ {
			n := bareNode([]int{size}, keys.NodeID{Group: 0, Index: own})
			visited := make(map[int]bool)
			for attempt := 0; attempt < 3*size; attempt++ {
				peer, ok := n.lanPeer(attempt)
				if size == 1 {
					if ok {
						t.Fatalf("size 1: lanPeer offered %v, the node itself", peer)
					}
					continue
				}
				if !ok || peer == n.id || peer.Group != 0 || peer.Index < 0 || peer.Index >= size {
					t.Fatalf("size %d own %d attempt %d: bad peer %v ok=%v", size, own, attempt, peer, ok)
				}
				if attempt < size-1 {
					visited[peer.Index] = true
				}
			}
			if size > 1 && len(visited) != size-1 {
				t.Fatalf("size %d own %d: %d of %d peers visited within n-1 attempts", size, own, len(visited), size-1)
			}
		}
	}
}

func TestRemoteRotation(t *testing.T) {
	t.Parallel()
	for size := 1; size <= 7; size++ {
		for own := 0; own < 7; own++ {
			// Requester in group 0 (always 7 members), servers in groups 1 and 2.
			n := bareNode([]int{7, size, size}, keys.NodeID{Group: 0, Index: own})
			first, ok := n.remotePeer([]int{1}, 0)
			if !ok || first.Group != 1 || first.Index != own%size {
				t.Fatalf("size %d own %d: rotation starts at %v, want member %d", size, own, first, own%size)
			}
			// The PR 10 defect: every requester's first target was member 0.
			if size > 1 && own%size != 0 && first.Index == 0 {
				t.Fatalf("size %d own %d: first target is member 0", size, own)
			}
			// Groups rotate fastest, then members; all are visited in a cycle.
			seen := make(map[keys.NodeID]bool)
			for attempt := 0; attempt < 2*size; attempt++ {
				peer, ok := n.remotePeer([]int{1, 2}, attempt)
				if !ok || peer.Group != 1+attempt%2 || peer.Index != (own+attempt/2)%size {
					t.Fatalf("size %d own %d attempt %d: got %v", size, own, attempt, peer)
				}
				seen[peer] = true
			}
			if len(seen) != 2*size {
				t.Fatalf("size %d own %d: %d of %d servers visited", size, own, len(seen), 2*size)
			}
		}
	}
	// A candidate list that includes the requester's own group never yields
	// the requester.
	for size := 2; size <= 7; size++ {
		for own := 0; own < size; own++ {
			n := bareNode([]int{size, size}, keys.NodeID{Group: 0, Index: own})
			for attempt := 0; attempt < 4*size; attempt++ {
				if peer, ok := n.remotePeer([]int{0, 1}, attempt); !ok || peer == n.id {
					t.Fatalf("size %d own %d attempt %d: got self (%v, ok=%v)", size, own, attempt, peer, ok)
				}
			}
		}
	}
}

func TestProgressGate(t *testing.T) {
	t.Parallel()
	const now, window = 10 * time.Second, 400 * ms
	cases := []struct {
		name     string
		evidence time.Duration
		want     []bool // admissions for keys on lanes 1,1,2,1,2
	}{
		{"fresh evidence: one key per lane", now - window + 1, []bool{true, false, true, false, false}},
		{"stale evidence: every key", now - window, []bool{true, true, true, true, true}},
		{"no evidence ever: every key", 0, []bool{true, true, true, true, true}},
	}
	lanes := []int{1, 1, 2, 1, 2}
	for _, c := range cases {
		var g gate
		for i, lane := range lanes {
			if got := g.admit(lane, c.evidence, now, window); got != c.want[i] {
				t.Errorf("%s: key %d on lane %d admitted=%v, want %v", c.name, i, lane, got, c.want[i])
			}
		}
	}
}

func TestRecordQueuedMatchesKindStreamEntry(t *testing.T) {
	t.Parallel()
	id := types.EntryID{GID: 1, Seq: 9}
	n := &Node{pendingRecs: []cluster.Record{{Kind: cluster.RecTS, Stream: 2, Entry: id, TS: 5}}}
	for _, c := range []struct {
		rec  cluster.Record
		want bool
	}{
		{cluster.Record{Kind: cluster.RecTS, Stream: 2, Entry: id, TS: 77}, true}, // value is not identity
		{cluster.Record{Kind: cluster.RecAccept, Stream: 2, Entry: id}, false},
		{cluster.Record{Kind: cluster.RecTS, Stream: 0, Entry: id}, false},
		{cluster.Record{Kind: cluster.RecTS, Stream: 2, Entry: types.EntryID{GID: 1, Seq: 10}}, false},
	} {
		if got := n.recordQueued(c.rec); got != c.want {
			t.Errorf("recordQueued(%+v) = %v, want %v", c.rec, got, c.want)
		}
	}
}

func TestPartitionHorizonBoundsArchiveAndBatchLog(t *testing.T) {
	t.Parallel()
	n := bareNode([]int{4, 4}, keys.NodeID{})
	const extra = 100
	for s := uint64(0); s < partitionHorizon+extra; s++ {
		n.logBatch(&cluster.MetaBatch{FromGroup: 1, Seq: s})
		n.archiveEntry(types.EntryID{GID: 1, Seq: s + 1}, &entrySt{})
	}
	if got := len(n.streams[1].log); got != partitionHorizon {
		t.Errorf("the log holds %d batches, want partitionHorizon = %d", got, partitionHorizon)
	}
	if got := len(n.archive); got != partitionHorizon {
		t.Errorf("archive holds %d entries, want partitionHorizon = %d", got, partitionHorizon)
	}
	// The newest window survives, the oldest is evicted, in both.
	if _, ok := n.streams[1].log[extra-1]; ok {
		t.Error("the log kept a batch older than the horizon")
	}
	if _, ok := n.streams[1].log[partitionHorizon+extra-1]; !ok {
		t.Error("the log lost its newest batch")
	}
	if n.archive[types.EntryID{GID: 1, Seq: extra}] != nil {
		t.Error("archive kept an entry older than the horizon")
	}
	if n.archive[types.EntryID{GID: 1, Seq: partitionHorizon + extra}] == nil {
		t.Error("archive lost its newest entry")
	}
}
