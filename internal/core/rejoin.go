package core

import (
	"sort"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/order"
	"massbft/internal/replication"
	"massbft/internal/types"
)

// rejoinBufMax bounds the consensus traffic buffered while a state transfer
// is in flight; overflow is dropped (the protocols tolerate message loss).
const rejoinBufMax = 8192

// checkpointTick periodically folds this node's full state into its rolling
// checkpoint (CheckpointInterval): everything but the state store by value,
// the store as a copy-on-write view, so a tick costs what was written since
// the previous one and nothing here may walk the whole store. Rejoin serving
// always folds fresh, but the periodic fold models the persisted snapshot a
// real deployment would restart from (the view is what it would write out
// while execution continues) and keeps the fold path exercised on every node.
func (n *Node) checkpointTick() {
	if n.latestState != nil {
		n.ctx.Metrics.Add("checkpoint-delta-keys", int64(n.latestState.Delta()))
	}
	n.latestCheckpoint = n.foldCheckpoint(n.ledger.Height())
	n.latestState = n.ctx.Engine.DB().Snapshot() // closes the previous tick's view
	n.ctx.Metrics.Inc("checkpoints")
	if n.checkpointHook != nil {
		n.checkpointHook()
	}
}

// foldCheckpoint snapshots the node at a virtual instant: the ledger suffix
// above `have`, group clock, both PBFT instances (with in-flight slots and
// their collected votes), the ordering machinery, stream cursors (with
// still-buffered out-of-order batches), and every pending entry — everything
// but the state store, which the caller attaches in the same step: a copy in
// State for a checkpoint that leaves the node (onRejoinReq), a view beside it
// for the node's own (checkpointTick). The simulation is single-threaded, so
// the fold is atomic by construction.
func (n *Node) foldCheckpoint(have uint64) *cluster.Checkpoint {
	if have > n.ledger.Height() {
		have = n.ledger.Height()
	}
	ck := &cluster.Checkpoint{
		Height:      n.ledger.Height(),
		Blocks:      n.ledger.Suffix(have),
		StateRoll:   n.stateRoll,
		Clk:         n.clk,
		NextSeq:     n.nextSeq,
		ExecCount:   n.execCount,
		CommitCount: n.commitCount,
		StreamTS:    make([]uint64, n.ng),
		StreamNext:  make([]uint64, n.ng),
		StreamView:  make([]uint64, n.ng),
		CommitHi:    make([]uint64, n.ng),
		ExecutedSeq: make([]uint64, n.ng),
	}
	for g, in := range n.streams {
		ck.StreamTS[g], ck.StreamNext[g], ck.StreamView[g] = in.ts, in.next, in.view
		ck.CommitHi[g], ck.ExecutedSeq[g] = in.commitHi, in.executed
		// Out-of-order batches were broadcast exactly once; fold them so the
		// restoring node does not lose them forever.
		seqs := make([]uint64, 0, len(in.buffered))
		for s := range in.buffered {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, s := range seqs {
			ck.Batches = append(ck.Batches, in.buffered[s])
		}
	}
	ck.LocalView, ck.LocalSlot, ck.LocalSlots = n.local.Export()
	ck.MetaView, ck.MetaSlot, ck.MetaSlots = n.meta.Export()
	if n.orderer != nil {
		ck.Ord = n.orderer.Export()
	} else {
		ck.Round, ck.Skipped = n.rounds.Export()
	}
	for _, id := range n.sortedEntryIDs() {
		st := n.live(id)
		if st == nil {
			continue
		}
		pe := cluster.PendingEntry{
			ID:         id,
			StampedBy:  st.stampedBy,
			Streams:    sortedKeys(st.stampedStreams),
			Stamps:     sortedKeys(st.stamps),
			Committed:  st.committed,
			CommitSeen: st.commitSeen,
		}
		if st.content {
			pe.Entry, pe.Cert = st.entry, st.cert
		}
		ck.Pending = append(ck.Pending, pe)
	}
	n.groups.fold(ck)
	return ck
}

// Rejoin implements cluster.Rejoiner: called when the network revives this
// node after a crash. The emulator discarded every timer that fired while the
// node was down, so all periodic loops are dead; Rejoin re-arms them under a
// fresh generation and starts the state-transfer exchange with a group peer
// instead of resuming from stale in-memory state.
func (n *Node) Rejoin() {
	now := n.now()
	n.lastTick = now
	n.lastLocalProgress = now
	n.lastMetaProgress = now
	n.lastOwnStream = now
	n.inFlight = 0
	n.pendingRecs = nil
	if n.selfStandby {
		// A cold standby node has no state worth recovering. If the join
		// trigger already reached us, restart the interrupted cross-group
		// bootstrap; otherwise stay deaf until it arrives (membership.go).
		n.rejoining = false
		if n.joinTriggered {
			n.startStandbyBootstrap()
			return
		}
		n.armTicks()
		return
	}
	if n.cfg.GroupSizes[n.g] < 2 {
		// No peer to transfer from; resume with what we have.
		n.armTicks()
		return
	}
	n.rejoining = true
	n.rejoinAttempts = 0
	n.rejoinBuf = nil
	n.armTicks()
	n.sendTransferReq()
}

// sendTransferReq asks the next peer (rotating per attempt) for a state
// transfer, and re-fires every RejoinTimeout until a checkpoint installs. A
// crashed node asks its own group's peers; a cold standby node has none that
// hold state and asks the active groups across the WAN (membership.go).
func (n *Node) sendTransferReq() {
	if !n.rejoining {
		return
	}
	peer, _ := n.lanPeer(n.rejoinAttempts)
	if n.selfStandby {
		var active []int
		for g := 0; g < n.ng; g++ {
			if g != n.g && !n.groups.absent(g) {
				active = append(active, g)
			}
		}
		if len(active) == 0 {
			return
		}
		peer, _ = n.remotePeer(active, n.rejoinAttempts)
	}
	n.rejoinAttempts++
	req := &cluster.RejoinReq{Have: n.ledger.Height()}
	n.ctx.Net.SendPriority(peer, req, req.WireSize())
	gen := n.tickGen
	n.ctx.Net.After(n.cfg.RejoinTimeout, func() {
		if n.tickGen == gen && n.rejoining {
			n.sendTransferReq()
		}
	})
}

// onRejoinReq serves a state transfer to a recovering group peer: a fresh
// fold, carrying only the ledger suffix the requester lacks. The requester
// verifies the suffix against its own certified chain before installing
// (see verifySuffix) — serving honestly is not load-bearing for safety.
func (n *Node) onRejoinReq(from keys.NodeID, m *cluster.RejoinReq) {
	if from == n.id || n.groups.rows[n.g].state == standby {
		return
	}
	// Cross-group requests are served only for a standby group's bootstrap;
	// an active group's members always recover from their own LAN peers.
	if from.Group != n.g &&
		(!n.inLayout(from.Group) || n.groups.rows[from.Group].state != standby) {
		return
	}
	resp := &cluster.RejoinResp{C: n.foldCheckpoint(m.Have)}
	// What leaves the node may be dropped, duplicated or delayed on the way:
	// it is a copy, never a view.
	resp.C.State = n.ctx.Engine.DB().Clone()
	if from.Group != n.g {
		// Our own row's cursor stays at zero, and so does the fold's
		// StreamNext for this group — but a bootstrapping node has never
		// processed any of our batches and must resume our stream exactly
		// where the folded state left it: the meta delivery cursor
		// (MetaBatch.Seq is the meta slot). Same-group requesters ignore this
		// slot.
		resp.C.StreamNext[n.g] = resp.C.MetaSlot
	}
	n.ctx.Net.Send(from, resp, resp.WireSize())
	n.ctx.Metrics.Inc("rejoin-served")
}

// onRejoinResp installs a received checkpoint wholesale and resumes normal
// operation. A checkpoint behind our own sealed height is rejected (a lagging
// peer answered); the retry timer rotates to another peer.
//
// When the installing node is a cold standby member (bootstrap), the
// checkpoint comes from an ACTIVE group: the global state installs the same
// way, but nothing group-scoped crosses the boundary — the server's PBFT
// instances, group clock, and proposer cursor belong to its group, not ours.
func (n *Node) onRejoinResp(from keys.NodeID, resp *cluster.RejoinResp) {
	if !n.rejoining || resp.C == nil || resp.C.State == nil {
		return // the wire allows a checkpoint without a state; an install needs one
	}
	bootstrap := n.selfStandby
	if bootstrap == (from.Group == n.g) {
		return // bootstrap answers come from other groups, rejoins from ours
	}
	ck := resp.C
	if ck.Height < n.ledger.Height() {
		return
	}
	// Verify the whole offered suffix against our own certified chain BEFORE
	// installing anything: appending as we validate would leave a partially
	// extended ledger behind when a later block fails, poisoning the next
	// transfer attempt.
	if !n.verifySuffix(ck) {
		n.ctx.Metrics.Inc("rejoin-badsuffix")
		return // reject; the retry timer rotates to another peer
	}
	// The pending entries are not on the chain: each carried content must be
	// certified the way a fetched copy is, or the serving peer could have us
	// execute an entry its group never certified.
	// The group tables decide quorums: a forged one would skew them.
	if !n.groups.valid(ck) {
		n.ctx.Metrics.Inc("rejoin-badgroups")
		return
	}
	encs, ok := n.validatePending(ck)
	if !ok {
		n.ctx.Metrics.Inc("rejoin-badpending")
		return
	}
	for _, b := range ck.Blocks {
		if b.Height <= n.ledger.Height() {
			continue
		}
		if err := n.ledger.AppendBlock(b); err != nil {
			return
		}
	}
	n.charge(time.Duration(ck.WireSize()) * n.cfg.Cost.RebuildPerByte)

	// Executed prefix. Restore closes this node's own checkpoint view: the
	// state it described is gone.
	n.ctx.Engine.DB().Restore(ck.State)
	n.latestCheckpoint, n.latestState = nil, nil
	n.stateRoll = ck.StateRoll
	n.execCount = ck.ExecCount
	n.commitCount = ck.CommitCount

	// Proposer state. A bootstrapping standby keeps its own zeroed group
	// clock and proposal cursor: the checkpoint's are the serving group's,
	// and ours are assigned by the certified join boundary (activateJoined).
	if !bootstrap {
		n.clk = ck.Clk
		if ck.NextSeq > n.nextSeq {
			n.nextSeq = ck.NextSeq
		}
	}
	n.inFlight = 0
	n.backlog = 0
	n.pendingRecs = nil

	// In-flight entry state starts over from the checkpoint's pending set.
	n.entries = make(map[types.EntryID]*entrySt)
	n.chunkFrom = make(map[types.EntryID]map[int]keys.NodeID)
	n.newCollector()

	// Origin rows, from the checkpoint or empty; heard is now, so the rejoined
	// node re-observes a fresh silence window before it suspects anyone
	// itself. Our own cursor stays at zero; bulkAt is this node's own
	// observation and survives.
	now := n.now()
	if n.tracePhase != nil {
		n.tracePhase = make(map[types.EntryID]time.Duration)
		n.traceFirstChunk = make(map[types.EntryID]time.Duration)
	}
	for g := range n.streams {
		row := newStream()
		row.ts, row.view = at(ck.StreamTS, g), at(ck.StreamView, g)
		row.commitHi, row.executed = at(ck.CommitHi, g), at(ck.ExecutedSeq, g)
		if g != n.g {
			row.next = at(ck.StreamNext, g)
		}
		row.heard, row.bulkAt = now, n.streams[g].bulkAt
		n.streams[g] = row
	}
	n.restoreFailover(ck)

	// Ordering machinery.
	if n.orderer != nil {
		n.orderer = order.NewOrderer(n.ng, n.execute)
		if ck.Ord != nil {
			n.orderer.Restore(ck.Ord)
		}
	} else {
		n.rounds = order.NewRoundOrderer(n.ng, n.execute)
		n.rounds.Restore(ck.Round, ck.Skipped)
	}

	// Pending entries. Entries without content get a backdated stamp time so
	// the Lemma V.1 fetch path kicks in on the next takeover tick.
	for i, pe := range ck.Pending {
		if pe.ID.Seq <= n.streams[pe.ID.GID].executed {
			continue
		}
		st := n.st(pe.ID)
		st.stampedBy = pe.StampedBy
		st.committed = pe.Committed
		st.commitSeen = pe.CommitSeen
		st.windowFreed = true
		for _, g := range pe.Stamps {
			st.stamps[g] = true
		}
		if len(pe.Streams) > 0 {
			st.stampedStreams = make(map[int]bool, len(pe.Streams))
			for _, s := range pe.Streams {
				st.stampedStreams[s] = true
			}
		}
		st.tsSent = st.stampedStreams[n.g]
		if pe.Entry != nil {
			st.entry, st.enc, st.cert = pe.Entry, encs[i], pe.Cert
			st.content = true
			st.contentAt = now
			if n.orderer != nil {
				n.orderer.MarkReady(pe.ID)
			} else {
				n.maybeRoundReady(pe.ID, st)
			}
		} else {
			// Own-group entries are NOT exempt: the serving peer may have
			// folded the entry after its local PBFT slot was delivered and
			// compacted, in which case the content will never re-arrive via
			// consensus — the fetch path is the only way to get it, and an
			// unarmed committed entry wedges the round orderer forever.
			st.firstStampAt = time.Duration(1)
		}
	}

	// PBFT instances last: Install may synchronously deliver committed
	// in-flight slots, which must apply against the restored state above.
	// A bootstrapping standby keeps its fresh genesis instances — the
	// exported slots are the serving group's consensus, not ours.
	if !bootstrap {
		n.local.Install(ck.LocalView, ck.LocalSlot, ck.LocalSlots)
		n.meta.Install(ck.MetaView, ck.MetaSlot, ck.MetaSlots)
	} else {
		n.selfStandby = false
		n.ctx.Metrics.Inc("standby-bootstrapped")
	}

	n.rejoining = false
	n.ctx.Metrics.Inc("state-transfers")
	// Replay the peer's still-buffered out-of-order batches, then whatever
	// consensus traffic arrived during the transfer.
	for _, b := range ck.Batches {
		n.onMetaBatch(n.id, b) // from self: no LAN re-relay
	}
	buf := n.rejoinBuf
	n.rejoinBuf = nil
	for i := range buf {
		n.HandleMessage(buf[i])
	}

	// Watchdog: if execution makes no progress for a long while after the
	// install (e.g. the transfer raced a leader change and this node wedged),
	// rejoin again rather than stay stuck forever. The patience must exceed
	// the slowest normal recovery path — a follower's Lemma V.1 fetch waits
	// 3x TakeoverTimeout before its first attempt — or the watchdog thrashes,
	// wiping nodes that were about to recover on their own.
	wd := 4 * n.cfg.RejoinTimeout
	if m := 8 * n.cfg.TakeoverTimeout; m > wd {
		wd = m
	}
	gen := n.tickGen
	execAt := n.execCount
	n.ctx.Net.After(wd, func() {
		if n.tickGen != gen || n.rejoining {
			return
		}
		if n.execCount == execAt {
			n.Rejoin()
		}
	})
}

// verifySuffix cross-checks an offered checkpoint's ledger suffix against
// this node's own certified chain — the transfer does NOT trust the serving
// LAN peer. Heights must run contiguously from our sealed head, prev-hashes
// must chain from it, and every block's state digest must equal the rolling
// execution digest recomputed from our own roll with the same fold sealBlock
// applies. The final roll must also match the checkpoint's claimed
// StateRoll, binding the state store being installed to the verified chain.
// (n.stateRoll always equals the head block's StateDigest: both are written
// only by sealBlock and restored together.)
func (n *Node) verifySuffix(ck *cluster.Checkpoint) bool {
	h := n.ledger.Height()
	prev := n.ledger.Head()
	roll := n.stateRoll
	for _, b := range ck.Blocks {
		if b.Height <= n.ledger.Height() {
			continue // overlap below our head is ignored, never installed
		}
		if b.Height != h+1 || b.Prev != prev {
			return false
		}
		roll = rollForward(roll, b.EntryDigest, b.Committed, b.Aborted)
		if b.StateDigest != roll {
			return false
		}
		h = b.Height
		prev = b.Hash()
	}
	return h == ck.Height && roll == ck.StateRoll
}

// validatePending checks that every pending entry of an offered checkpoint
// names groups of the layout and, if it carries content, checks the content
// against its certificate (replication.ValidateEntryMsg) and its pending ID,
// returning the certified encodings parallel to ck.Pending (nil where there
// is no content).
func (n *Node) validatePending(ck *cluster.Checkpoint) ([][]byte, bool) {
	encs := make([][]byte, len(ck.Pending))
	for i, pe := range ck.Pending {
		if !n.inLayout(pe.ID.GID) || !n.inLayout(pe.StampedBy) {
			return nil, false
		}
		if pe.Entry == nil {
			continue
		}
		enc, err := replication.ValidateEntryMsg(n.ctx.Reg, &replication.EntryMsg{Entry: pe.Entry, Cert: pe.Cert})
		if err != nil || pe.Entry.ID != pe.ID {
			return nil, false
		}
		encs[i] = enc
	}
	return encs, true
}

// at returns s[g], or zero past the end of s: an offered checkpoint's
// per-group slices are as long as its sender made them.
func at(s []uint64, g int) uint64 {
	if g < len(s) {
		return s[g]
	}
	return 0
}

// sortedKeys returns a map's keys in ascending order: checkpoint folds,
// takeover and vote scans must iterate deterministically.
func sortedKeys[V any](m map[int]V) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
