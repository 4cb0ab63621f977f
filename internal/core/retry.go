package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// The paper fixes what a node may recover and from whom (Lemma V.1 fetch, the
// §IV-A whole-entry slow path, §V-C takeover) but not when to ask again. That
// policy is this file: one retry clock, one peer rotation, one progress gate,
// one pending-record lookup, one retention horizon, and the walk that applies
// them to the per-entry task table in recovery.go (DESIGN.md §6).

// retry is the clock of one recovery path on one key (an entry, a stream
// cursor, an own proposal): how many attempts were made and when the next may
// go. The zero value is "never tried".
type retry struct {
	attempt int
	nextAt  time.Duration
}

// ready reports whether an attempt may go now: the arming evidence has stood
// for the path's patience and the previous attempt's backoff has elapsed.
func (r *retry) ready(now, since, patience time.Duration) bool {
	return now-since >= patience && now >= r.nextAt
}

// next books one attempt and returns its index, counted from zero; the
// following attempt waits backoff(base, index).
func (r *retry) next(now, base time.Duration) int {
	a := r.attempt
	r.attempt++
	r.nextAt = now + backoff(base, a)
	return a
}

func (r *retry) reset() { *r = retry{} }

// backoff returns base << min(attempt, 4): exponential, capped at 16x.
func backoff(base time.Duration, attempt int) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	return base << uint(attempt)
}

// peerAt returns the member of group g that sits k places after this node's
// own index, stepping past this node itself. Every rotation starts from the
// requester's index so concurrent requesters spread over the serving group's
// members (and their uplinks) instead of all hitting member 0 — which is also
// the leader, whose uplink is the busiest link there is. ok is false when the
// only candidate is this node.
func (n *Node) peerAt(g, k int) (peer keys.NodeID, ok bool) {
	size := n.cfg.GroupSizes[g]
	idx := (n.id.Index + k) % size
	if g == n.g && idx == n.id.Index {
		idx = (idx + 1) % size
	}
	peer = keys.NodeID{Group: g, Index: idx}
	return peer, peer != n.id
}

// lanPeer rotates over this node's own group, starting at its successor: all
// n-1 peers are visited within n-1 attempts, so a crashed or equally-behind
// peer is skipped on the next one.
func (n *Node) lanPeer(attempt int) (keys.NodeID, bool) {
	return n.peerAt(n.g, attempt+1)
}

// remotePeer rotates over the candidate groups first, then over each group's
// members from the requester's own index.
func (n *Node) remotePeer(groups []int, attempt int) (keys.NodeID, bool) {
	return n.peerAt(groups[attempt%len(groups)], attempt/len(groups))
}

// gate is the progress gate of one task over one tick. The per-key backoffs
// assume the round trip is shorter than their caps — which congestion breaks:
// with multi-second NIC queues, every retry fires long before the copy it
// retransmits could possibly have arrived, so the whole stalled tail (a full
// pipeline window per group) is re-sent as bulk traffic that queues behind
// the congestion delaying it. That positive feedback loop collapses a run:
// backlogs grow without bound, the group clocks freeze behind seconds-late
// stamps, and the failover layer eventually suspects the idle (but alive)
// streams. The gate therefore distinguishes SLOW from DEAD by observed
// progress: while the lane's traffic is demonstrably still arriving (chunks
// from the origin, foreign stamps on own entries), retransmission collapses
// to the single oldest key per lane per tick — the only one the contiguous
// clock and executor can block on — and the in-flight copies are left to
// drain. Only when progress stops for the patience window (a genuine
// partition, crash, or total loss burst) does the full unbounded sweep run.
// The gate is consulted after the time gates, so a key it holds back keeps
// its backoff state untouched and is retried oldest-first next tick.
type gate struct{ fired map[int]bool }

func (g *gate) admit(lane int, evidence, now, window time.Duration) bool {
	if evidence != 0 && now-evidence < window && g.fired[lane] {
		return false
	}
	if g.fired == nil {
		g.fired = make(map[int]bool)
	}
	g.fired[lane] = true
	return true
}

// recordQueued reports whether a record of the same kind for the same stream
// and entry is already queued locally (awaiting flush, or restored after a
// failed propose): such a record is not lost, just not certified yet, and a
// scan must not queue a duplicate within one flush interval.
func (n *Node) recordQueued(rec cluster.Record) bool {
	for _, r := range n.pendingRecs {
		if r.Kind == rec.Kind && r.Stream == rec.Stream && r.Entry == rec.Entry {
			return true
		}
	}
	return false
}

// emitOnce queues rec unless an equal one is already pending, counting the
// emission by the record's kind and whether it names our own group; it
// reports whether it queued.
func (n *Node) emitOnce(rec cluster.Record) bool {
	if n.recordQueued(rec) {
		return false
	}
	c, own := &n.ctx.Metrics.Counts, rec.Stream == n.g
	switch {
	case rec.Kind == cluster.RecSuspect:
		c.SuspectsEmitted++
	case rec.Kind == cluster.RecRevoke:
		c.RevokesEmitted++
	case rec.Kind == cluster.RecDead:
		c.DeathsEmitted++
	case rec.Kind == cluster.RecGroupJoin && own:
		c.JoinReadyEmitted++
	case rec.Kind == cluster.RecGroupJoin:
		c.JoinVotesEmitted++
	case rec.Kind == cluster.RecGroupLeave && own:
		c.FarewellsEmitted++
	case rec.Kind == cluster.RecGroupLeave:
		c.LeaveVotesEmitted++
	case rec.Kind == cluster.RecEpoch:
		c.EpochsEmitted++
	}
	n.emitRecord(rec)
	return true
}

// partitionHorizon bounds, per group, both the post-execution entry archive
// (sequence numbers kept servable for Lemma V.1 fetches and chunk-repair
// NACKs) and the batch log (MetaBatches kept servable for stream-gap NACKs);
// gaps older than the window fall back to state transfer. It is one constant
// because it is one quantity — a partition tolerance horizon, not a
// single-loss buffer. A receiver severed from an origin misses the origin's
// entire entry and batch streams for the partition's duration and must page
// the missed suffix back (Lemma V.1 with per-entry backoff, StreamFetch
// bursts) after the heal. Every live node evicts in lockstep — execution is
// totally ordered — so an entry aged out of ALL archives before the laggard's
// fetch lands is unservable forever and wedges the laggard's execution
// permanently (its same-group peers are equally behind, so checkpointed
// rejoin cannot rescue it). Retention therefore has to cover the longest
// ride-out partition plus the post-heal backlog drain at the per-group
// ceilings (~100-200 entries/s, ~200 batches/s in the chaos configs); the old
// archive window of 512 (≈4 s) was overrun by a 4 s partition.
const partitionHorizon = 2048

// recoveryTask is one row of the per-entry recovery table (recovery.go).
type recoveryTask struct {
	counter func(*metrics.Counts) *int64 // the counter fire's result is added to
	on      func(n *Node) bool           // role/configuration gate (nil: every node)
	clock   func(*entrySt) *retry        // the row's clock (nil: fires once per entry)
	// armed returns when the row's arming evidence appeared on the entry
	// (zero: not armed), the patience before the first attempt — also the
	// progress-gate window — and the backoff base.
	armed func(n *Node, id types.EntryID, st *entrySt) (since, patience, base time.Duration)
	// progress returns when traffic was last seen on the entry's gate lane,
	// its origin group (nil: ungated).
	progress func(n *Node, origin int) time.Duration
	// fire books the attempt, transmits, and returns how many transmissions
	// count towards counter.
	fire func(n *Node, now time.Duration, id types.EntryID, st *entrySt, base time.Duration) int
}

// live returns the entry's state if recovery may still act on it: executed
// entries, and late state resurrected below the execution watermark, are dead
// to every task.
func (n *Node) live(id types.EntryID) *entrySt {
	st := n.entries[id]
	if st == nil || st.executed || id.Seq <= n.streams[id.GID].executed {
		return nil
	}
	return st
}

// runTask applies one table row to the tick's sorted entry walk, oldest first.
// A tick sorts once and runs its rows one after another, not interleaved per
// entry: the order of a tick's sends is the order of the simulator's fault
// draws, and the pinned fault fingerprints reproduce only while it is stable.
func (n *Node) runTask(t *recoveryTask, ids []types.EntryID, now time.Duration) {
	if t.on != nil && !t.on(n) {
		return
	}
	var g gate
	for _, id := range ids {
		st := n.live(id)
		if st == nil {
			continue
		}
		since, patience, base := t.armed(n, id, st)
		if since == 0 || t.clock != nil && !t.clock(st).ready(now, since, patience) {
			continue
		}
		if t.progress != nil && !g.admit(id.GID, t.progress(n, id.GID), now, patience) {
			continue
		}
		*t.counter(&n.ctx.Metrics.Counts) += int64(t.fire(n, now, id, st, base))
	}
}
