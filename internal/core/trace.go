package core

import (
	"time"

	"massbft/internal/trace"
	"massbft/internal/types"
)

// This file holds the node's tracing glue: every function here is passive
// (records spans, never schedules events or charges CPU) and cheap or
// disabled entirely when ctx.Trace is nil, so a traced run stays
// bit-identical to an untraced one.

// localPhaseTrace returns the pbft phase hook that turns this node's own
// local proposals' phase transitions into pbft-preprepare/prepare/commit
// spans; nil when tracing is off.
func (n *Node) localPhaseTrace() func(slot uint64, phase string, payload []byte) {
	if n.ctx.Trace == nil {
		return nil
	}
	n.tracePhase = make(map[types.EntryID]time.Duration)
	n.traceFirstChunk = make(map[types.EntryID]time.Duration)
	return func(slot uint64, phase string, payload []byte) {
		if len(payload) == 0 {
			return
		}
		e, _, err := types.PeekEntry(payload)
		if err != nil || e.ID.GID != n.g {
			return
		}
		// Phase spans are recorded on the proposer only (n.proposed holds
		// the entry from Propose until local certification delivers it), so
		// each entry has exactly one span per PBFT phase.
		if _, mine := n.proposed[e.ID.Seq]; !mine {
			return
		}
		now := n.now()
		prev, seen := n.tracePhase[e.ID]
		if !seen {
			prev = time.Duration(e.Term)
		}
		switch phase {
		case "pre-prepare":
			n.traceSpan(e.ID, trace.StagePrePrepare, time.Duration(e.Term), now)
			n.tracePhase[e.ID] = now
		case "prepared":
			n.traceSpan(e.ID, trace.StagePrepare, prev, now)
			n.tracePhase[e.ID] = now
		case "committed":
			n.traceSpan(e.ID, trace.StageCommit, prev, now)
			delete(n.tracePhase, e.ID)
		}
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
