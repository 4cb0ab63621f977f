// Package order implements MassBFT's asynchronous log ordering (§V): vector
// timestamps (VTS), the strict total order '≺' of Lemma V.4, and the
// deterministic ordering state machine of Algorithm 2, including VTS
// inference from per-group clock monotonicity. It also provides the
// round-based synchronous orderer used by Baseline, GeoBFT, and ISS (§II-A),
// which is the behaviour Fig 2 shows MassBFT eliminating.
//
// The package is pure: it consumes timestamp and readiness events and emits
// execution decisions through a callback. All I/O lives in the protocol
// layers.
package order

import (
	"fmt"

	"massbft/internal/types"
)

// Orderer is one node's Algorithm-2 state machine. Entries are identified by
// (gid, seq) with seq starting at 1; group clocks start at 0.
//
// The caller must deliver timestamps from each group's Raft instance in
// assignment order (FIFO) — that is what makes inference sound: if group G_i
// has not yet timestamped an entry, its eventual timestamp is at least the
// latest one received from G_i.
type Orderer struct {
	ng      int
	execute func(types.EntryID)

	entries map[types.EntryID]*entryOrd
	heads   []*entryOrd
	ready   map[types.EntryID]bool
	// executedSeq[g] is the highest executed sequence per group; late
	// timestamps for executed entries are dropped instead of resurrecting
	// their state (inference already advanced past them).
	executedSeq []uint64
	// executedCount counts executed entries (for stats).
	executedCount int
}

type entryOrd struct {
	id  types.EntryID
	vts []uint64
	set []bool
}

// NewOrderer creates an orderer for ng groups. execute is called for each
// entry in the deterministic global order, exactly once, only after the
// entry was marked ready (content available locally).
func NewOrderer(ng int, execute func(types.EntryID)) *Orderer {
	o := &Orderer{
		ng:          ng,
		execute:     execute,
		entries:     make(map[types.EntryID]*entryOrd),
		heads:       make([]*entryOrd, ng),
		ready:       make(map[types.EntryID]bool),
		executedSeq: make([]uint64, ng),
	}
	// heads[i] starts at entry (i, 1); its self timestamp is deterministic
	// (Algorithm 2 line 12: e_{i,n}.vts[i] = n).
	for i := 0; i < ng; i++ {
		o.heads[i] = o.entry(types.EntryID{GID: i, Seq: 1})
	}
	return o
}

func (o *Orderer) entry(id types.EntryID) *entryOrd {
	e, ok := o.entries[id]
	if !ok {
		e = &entryOrd{id: id, vts: make([]uint64, o.ng), set: make([]bool, o.ng)}
		if id.GID >= 0 && id.GID < o.ng {
			e.vts[id.GID] = id.Seq
			e.set[id.GID] = true
		}
		o.entries[id] = e
	}
	return e
}

// OnTimestamp processes a replicated timestamp: group fromGroup assigned
// clock value ts to entry id (Algorithm 2's OnReceiving). It triggers any
// executions the new information enables.
func (o *Orderer) OnTimestamp(fromGroup int, ts uint64, id types.EntryID) error {
	if fromGroup < 0 || fromGroup >= o.ng {
		return fmt.Errorf("order: timestamp from unknown group %d", fromGroup)
	}
	if id.GID >= 0 && id.GID < o.ng && id.Seq <= o.executedSeq[id.GID] {
		// Late timestamp for an already-executed entry: the inference
		// update below still applies, but no per-entry state is revived.
		for _, head := range o.heads {
			if !head.set[fromGroup] && head.vts[fromGroup] < ts {
				head.vts[fromGroup] = ts
			}
		}
		o.drain()
		return nil
	}
	e := o.entry(id)
	if e.set[fromGroup] && e.vts[fromGroup] != ts {
		return fmt.Errorf("order: conflicting timestamp for %v from group %d: %d then %d",
			id, fromGroup, e.vts[fromGroup], ts)
	}
	e.vts[fromGroup] = ts
	e.set[fromGroup] = true
	// Inference (lines 6-7): every head whose fromGroup element is not yet
	// set can raise its lower bound to ts, because group clocks assign in
	// non-decreasing order and replicate FIFO.
	for _, head := range o.heads {
		if !head.set[fromGroup] && head.vts[fromGroup] < ts {
			head.vts[fromGroup] = ts
		}
	}
	o.drain()
	return nil
}

// MarkReady records that the entry's content is available locally (rebuilt
// from chunks and certificate-validated); execution of an entry waits for
// both its order position and its content.
func (o *Orderer) MarkReady(id types.EntryID) {
	o.ready[id] = true
	o.drain()
}

// drain executes entries while the global minimum is determined and ready
// (Algorithm 2 lines 8-15).
func (o *Orderer) drain() {
	for {
		pre := o.globalMinimum()
		if pre == nil || !o.ready[pre.id] {
			return
		}
		o.execute(pre.id)
		o.executedCount++
		o.executedSeq[pre.id.GID] = pre.id.Seq
		delete(o.ready, pre.id)
		delete(o.entries, pre.id)
		nxt := o.entry(types.EntryID{GID: pre.id.GID, Seq: pre.id.Seq + 1})
		o.heads[pre.id.GID] = nxt
		// Infer nxt's unset elements from pre's VTS (lines 13-15): group
		// clocks are non-decreasing, so nxt.vts[j] >= pre.vts[j].
		for j := 0; j < o.ng; j++ {
			if !nxt.set[j] && nxt.vts[j] < pre.vts[j] {
				nxt.vts[j] = pre.vts[j]
			}
		}
	}
}

// globalMinimum returns the head that provably precedes every other head, or
// nil when no head can be proven minimal yet (lines 16-20).
func (o *Orderer) globalMinimum() *entryOrd {
	for _, e1 := range o.heads {
		minimal := true
		for _, e2 := range o.heads {
			if e1 == e2 {
				continue
			}
			if !prec(e1, e2) {
				minimal = false
				break
			}
		}
		if minimal {
			return e1
		}
	}
	return nil
}

// prec reports whether e1 provably precedes e2 given possibly-inferred
// elements (Algorithm 2 lines 21-30). Inferred elements are lower bounds:
// e1's inferred element can only grow, so it cannot witness e1 ≺ e2; e2's
// inferred element can only grow, so e1.vts[j] < e2.vts[j] with e1 set is
// conclusive even if e2's value is inferred.
func prec(e1, e2 *entryOrd) bool {
	ng := len(e1.vts)
	for j := 0; j < ng; j++ {
		if e1.set[j] {
			if e1.vts[j] < e2.vts[j] {
				return true
			}
			if e2.set[j] && e1.vts[j] == e2.vts[j] {
				continue
			}
		}
		return false
	}
	// Identical fully-set VTSs: break ties by seq then gid (Lemma V.4).
	if e1.id.Seq != e2.id.Seq {
		return e1.id.Seq < e2.id.Seq
	}
	return e1.id.GID < e2.id.GID
}

// Executed returns the number of entries executed so far.
func (o *Orderer) Executed() int { return o.executedCount }

// EntryVTS is the portable image of one entry's (possibly partial) vector
// timestamp.
type EntryVTS struct {
	ID  types.EntryID
	VTS []uint64
	Set []bool
}

// State is a checkpoint of the Algorithm-2 state machine: the per-group
// executed watermarks plus every live entry's VTS knowledge (heads included,
// which carry the inference lower bounds). Readiness is deliberately absent —
// it reflects local content availability, which the restoring node
// re-establishes as entries arrive.
type State struct {
	ExecutedSeq []uint64
	Entries     []EntryVTS
}

// Export snapshots the orderer for a state transfer. Entries are emitted in
// (GID, Seq) order so the snapshot is deterministic.
func (o *Orderer) Export() *State {
	s := &State{ExecutedSeq: append([]uint64(nil), o.executedSeq...)}
	ids := make([]types.EntryID, 0, len(o.entries))
	for id := range o.entries {
		ids = append(ids, id)
	}
	sortEntryIDs(ids)
	for _, id := range ids {
		e := o.entries[id]
		s.Entries = append(s.Entries, EntryVTS{
			ID:  id,
			VTS: append([]uint64(nil), e.vts...),
			Set: append([]bool(nil), e.set...),
		})
	}
	return s
}

// Restore resets the orderer to an exported snapshot. Execution resumes at
// the snapshot's watermarks; entries become executable again once the caller
// re-marks them ready.
func (o *Orderer) Restore(s *State) {
	o.executedSeq = make([]uint64, o.ng)
	copy(o.executedSeq, s.ExecutedSeq)
	o.entries = make(map[types.EntryID]*entryOrd)
	o.ready = make(map[types.EntryID]bool)
	for _, ex := range s.Entries {
		if ex.ID.GID < 0 || ex.ID.GID >= o.ng || len(ex.VTS) != o.ng || len(ex.Set) != o.ng {
			continue
		}
		o.entries[ex.ID] = &entryOrd{
			id:  ex.ID,
			vts: append([]uint64(nil), ex.VTS...),
			set: append([]bool(nil), ex.Set...),
		}
	}
	for g := 0; g < o.ng; g++ {
		o.heads[g] = o.entry(types.EntryID{GID: g, Seq: o.executedSeq[g] + 1})
	}
}

// SkipTo advances group g's cursor past a void sequence prefix [1, seq]
// without executing anything: a group admitted by certified epoch
// reconfiguration proposes its first entry at seq+1, so the seqs below it
// will never exist and the head parked on one of them could otherwise
// never be proven minimal (its lower indices stay inferred forever),
// wedging the drain. The old head's inferred lower bounds transfer to the
// re-seated head — group clocks are non-decreasing, so every bound learned
// for the phantom entry also holds for its successor.
func (o *Orderer) SkipTo(g int, seq uint64) {
	if g < 0 || g >= o.ng || seq <= o.executedSeq[g] {
		return
	}
	old := o.heads[g]
	for id := range o.entries {
		if id.GID == g && id.Seq <= seq {
			delete(o.entries, id)
			delete(o.ready, id)
		}
	}
	o.executedSeq[g] = seq
	nxt := o.entry(types.EntryID{GID: g, Seq: seq + 1})
	for j := 0; j < o.ng; j++ {
		if !nxt.set[j] && nxt.vts[j] < old.vts[j] {
			nxt.vts[j] = old.vts[j]
		}
	}
	o.heads[g] = nxt
	o.drain()
}

func sortEntryIDs(ids []types.EntryID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && lessID(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func lessID(a, b types.EntryID) bool {
	if a.GID != b.GID {
		return a.GID < b.GID
	}
	return a.Seq < b.Seq
}

// PendingHead returns the ID of the next-to-execute entry of group g; useful
// for observability and tests.
func (o *Orderer) PendingHead(g int) types.EntryID { return o.heads[g].id }

// --- Static total order (Lemma V.4) over complete VTSs ---

// CompareVTS compares two complete vector timestamps element-wise
// (lexicographically); ties broken by seq then gid. It returns -1, 0, or +1.
// Both entries must have fully assigned VTSs of equal length.
func CompareVTS(vts1 []uint64, id1 types.EntryID, vts2 []uint64, id2 types.EntryID) int {
	for j := range vts1 {
		if vts1[j] != vts2[j] {
			if vts1[j] < vts2[j] {
				return -1
			}
			return 1
		}
	}
	if id1.Seq != id2.Seq {
		if id1.Seq < id2.Seq {
			return -1
		}
		return 1
	}
	if id1.GID != id2.GID {
		if id1.GID < id2.GID {
			return -1
		}
		return 1
	}
	return 0
}
