package core

import (
	"time"

	"massbft/internal/cluster"
	"massbft/internal/trace"
	"massbft/internal/types"
)

// This file holds the node's transition sink and tracing glue: every function
// here is passive (counts, records spans, never schedules events or charges
// CPU) and the tracing cheap or disabled entirely when ctx.Trace is nil, so a
// traced run stays bit-identical to an untraced one.

// transition is the sink of every transition the node makes, from apply,
// observeLocal and observeMeta: the one place their counters move, the source
// of the phase spans (payload is the slot's), and last the caller of the
// process's OnTransition hook.
func (n *Node) transition(tr cluster.Transition, payload []byte) {
	c := &n.ctx.Metrics.Counts
	switch tr.Kind {
	case cluster.TransSuspect:
		c.GroupSuspects++
	case cluster.TransRevoke:
		c.GroupRevokes++
	case cluster.TransDead:
		c.GroupDeaths++
	case cluster.TransDeadDupe:
		c.DeadDupes++
	case cluster.TransJoinVote:
		c.JoinVotes++
	case cluster.TransLeaveVote, cluster.TransFarewell:
		c.LeaveVotes++
	case cluster.TransDepart:
		c.GroupsDeparted++
		c.EpochSwitches++
	case cluster.TransAdmit:
		c.EpochSwitches++
	case cluster.TransEpochDupe:
		c.EpochDupes++
	case cluster.TransEpochBadOrigin:
		c.EpochBadOrigin++
	case cluster.TransLocalView:
		c.LocalViewChanges++
	case cluster.TransMetaView:
		c.MetaViewChanges++
	case cluster.TransPrePrepare, cluster.TransPrepared, cluster.TransCommitted:
		n.phaseSpan(tr.Kind, tr.At, payload)
	}
	if hook := n.ctx.OnTransition; hook != nil {
		hook(n.id, tr)
	}
}

// phaseSpan turns a local PBFT phase of this node's own proposal into its
// pbft-preprepare/prepare/commit span.
func (n *Node) phaseSpan(phase cluster.TransitionKind, slot uint64, payload []byte) {
	// Phase spans are recorded on the proposer only (n.proposed holds the
	// entry from Propose until its slot delivers), so each entry has exactly
	// one span per PBFT phase.
	if n.ctx.Trace == nil || !n.ownProposal(slot, payload) {
		return
	}
	e, _, _ := types.PeekEntry(payload) // our own encoding
	now := n.now()
	prev, seen := n.tracePhase[e.ID]
	if !seen {
		prev = time.Duration(e.Term)
	}
	switch phase {
	case cluster.TransPrePrepare:
		n.traceSpan(e.ID, trace.StagePrePrepare, time.Duration(e.Term), now)
		n.tracePhase[e.ID] = now
	case cluster.TransPrepared:
		n.traceSpan(e.ID, trace.StagePrepare, prev, now)
		n.tracePhase[e.ID] = now
	case cluster.TransCommitted:
		n.traceSpan(e.ID, trace.StageCommit, prev, now)
		delete(n.tracePhase, e.ID)
	}
}

// traceSpan records one span on this node.
func (n *Node) traceSpan(id types.EntryID, stage string, start, end time.Duration) {
	n.ctx.Trace.Record(trace.Span{Entry: id, Stage: stage, Node: n.id, Start: start, End: end})
}

// traceChunkArrival timestamps the first chunk of a not-yet-rebuilt foreign
// entry; onRebuilt turns it into the chunk-collect span. Kept in a side map
// so tracing never creates entry state an untraced run would not have.
func (n *Node) traceChunkArrival(id types.EntryID) {
	if n.ctx.Trace == nil {
		return
	}
	if st := n.entries[id]; st != nil && st.content {
		return
	}
	if _, ok := n.traceFirstChunk[id]; !ok {
		n.traceFirstChunk[id] = n.now()
	}
}
