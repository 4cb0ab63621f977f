package cluster

import (
	"encoding/binary"

	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/merkle"
	"massbft/internal/order"
	"massbft/internal/pbft"
	"massbft/internal/replication"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// LocalMsg wraps a message of the local PBFT instance that certifies entries
// (intra-group, LAN).
type LocalMsg struct {
	M pbft.Msg
}

// WireSize returns the serialized size in bytes.
func (m *LocalMsg) WireSize() int { return 1 + m.M.WireSize() }

// MetaMsg wraps a message of the meta PBFT instance (skip-prepare) that
// certifies accept/commit/timestamp records (intra-group, LAN).
type MetaMsg struct {
	M pbft.Msg
}

// WireSize returns the serialized size in bytes.
func (m *MetaMsg) WireSize() int { return 1 + m.M.WireSize() }

// BatchFwd is the LAN re-broadcast of a WAN-received chunk batch (§IV-B
// "exchange their received chunks").
type BatchFwd struct {
	B *replication.ChunkBatch
}

// WireSize returns the serialized size in bytes.
func (m *BatchFwd) WireSize() int { return 1 + m.B.WireSize() }

// EntryWAN carries a complete entry copy between groups (one-way and
// bijective replication).
type EntryWAN struct {
	E *replication.EntryMsg
}

// WireSize returns the serialized size in bytes.
func (m *EntryWAN) WireSize() int { return 1 + m.E.WireSize() }

// EntryFwd is the LAN re-broadcast of a WAN-received entry copy.
type EntryFwd struct {
	E *replication.EntryMsg
}

// WireSize returns the serialized size in bytes.
func (m *EntryFwd) WireSize() int { return 1 + m.E.WireSize() }

// Record kinds carried by the meta instance and MetaBatch messages.
const (
	// RecTS is a vector-timestamp assignment: group Stream assigned TS to
	// Entry. In async mode it doubles as the group's accept.
	RecTS = iota
	// RecAccept is a round-mode accept: the sender group received Entry.
	RecAccept
	// RecCommit announces that Entry achieved global consensus.
	RecCommit
	// RecSuspect is a quorum-witnessed-failover attestation: the emitting
	// group observed 4x-takeover-timeout silence from group Stream. TS
	// carries the emitter's next-expected MetaBatch seq for the suspected
	// stream (its "lastSeen" cursor), which bounds the eventual death cut.
	// Entry is unused (zero).
	RecSuspect
	// RecRevoke withdraws the emitting group's standing RecSuspect for group
	// Stream: the suspected stream produced a certified batch before a death
	// quorum formed. Entry and TS are unused (zero).
	RecRevoke
	// RecDead is the consensus-backed group-death/skip decision: the
	// designated successor certifies that group Stream is dead with cut
	// position TS — every node processes exactly Stream's batches [0, TS)
	// and fences the rest, so the takeover stamps (async) and round skips
	// (Baseline family) derived from it are identical cluster-wide. Entry is
	// unused (zero).
	RecDead
	// RecGroupJoin is a membership approval for admitting standby group
	// Stream. Emitted by an active group it is one vote of the join quorum;
	// emitted by the standby group itself (origin == Stream, its first and
	// only pre-join record) it is the readiness attestation proving the
	// group bootstrapped through checkpointed rejoin. Entry and TS unused.
	RecGroupJoin
	// RecGroupLeave is a membership approval for removing active group
	// Stream. TS carries the emitter's next-expected MetaBatch seq for the
	// leaving stream (its cursor), which bounds the eventual epoch cut the
	// same way RecSuspect cursors bound a death cut. Entry unused.
	RecGroupLeave
	// RecEpoch is the certified epoch switch, emitted by the coordinator
	// (lowest active group != target) once the Byzantine quorum of standing
	// approvals — plus, for a join, the target's readiness attestation —
	// exists. Stream is the target group; Entry.GID carries the op
	// (ReconfigJoin/ReconfigLeave); Entry.Seq the new epoch number
	// (processed only when it equals epoch+1, so duplicates are inert); TS
	// is the join boundary S (the joined group proposes from seq S+1) or
	// the leave cut (the departing stream's batches >= TS are fenced).
	RecEpoch
	// RecKeepalive is a liveness beacon with no protocol effect: a live meta
	// leader emits one whenever its group's certified stream would otherwise
	// idle past a fraction of SuspectTimeout, so stream silence implies group
	// death rather than mere quiescence. Without it, a group whose ordering
	// clock is stalled (e.g. stamps delayed behind congested WAN queues) stops
	// producing records while demonstrably alive, and the quorum-witnessed
	// failover certifies a false GroupDead — permanently wedging the group.
	// Receivers treat the batch arrival itself as the liveness evidence; the
	// record body is ignored. Stream is the emitting group; Entry/TS unused.
	RecKeepalive
)

// Reconfigure op codes (Entry.GID of a RecEpoch, and ReconfigureMsg.Op).
// Stable wire contract: never renumber.
const (
	ReconfigJoin  byte = 1
	ReconfigLeave byte = 2
)

// Record is one certified statement by a group.
type Record struct {
	Kind int
	// Stream is the group clock the TS belongs to; normally the emitting
	// group, but a takeover leader emits on a crashed group's stream (§V-C).
	Stream int
	Entry  types.EntryID
	TS     uint64
	// View fences the record to the meta view of the leader that emitted it.
	// Receivers track the highest view seen per origin stream and drop
	// records from older views: after a meta view change re-emits a record
	// (restampTask), a surviving in-flight copy from the deposed leader can
	// no longer certify with a conflicting stamp — every node drops it
	// identically, since per-origin record streams are FIFO.
	View uint64
}

const recordWire = 1 + 4 + 12 + 8 + 8

// EncodeRecords serializes records as a meta-PBFT payload.
func EncodeRecords(recs []Record) []byte {
	buf := make([]byte, 0, 4+len(recs)*recordWire)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = append(buf, byte(r.Kind))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Stream))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Entry.GID))
		buf = binary.BigEndian.AppendUint64(buf, r.Entry.Seq)
		buf = binary.BigEndian.AppendUint64(buf, r.TS)
		buf = binary.BigEndian.AppendUint64(buf, r.View)
	}
	return buf
}

// DecodeRecords parses a meta-PBFT payload.
func DecodeRecords(buf []byte) ([]Record, bool) {
	if len(buf) < 4 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) != n*recordWire {
		return nil, false
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Kind = int(buf[0])
		recs[i].Stream = int(binary.BigEndian.Uint32(buf[1:]))
		recs[i].Entry.GID = int(binary.BigEndian.Uint32(buf[5:]))
		recs[i].Entry.Seq = binary.BigEndian.Uint64(buf[9:])
		recs[i].TS = binary.BigEndian.Uint64(buf[17:])
		recs[i].View = binary.BigEndian.Uint64(buf[25:])
		buf = buf[recordWire:]
	}
	return recs, true
}

// MetaBatch carries a group's certified records to other groups (WAN,
// leader-to-leader) and into their groups (LAN, leader-to-members). Seq
// orders batches per origin group so receivers can process streams FIFO.
type MetaBatch struct {
	FromGroup int
	Seq       uint64
	Records   []Record
	Cert      *keys.Certificate
}

// WireSize returns the serialized size in bytes.
func (m *MetaBatch) WireSize() int {
	n := 1 + 4 + 8 + 4 + len(m.Records)*recordWire
	if m.Cert != nil {
		n += m.Cert.Size()
	}
	return n
}

// EntryFetch asks a group that stamped an entry for its full content — the
// Lemma V.1 recovery path: a group that assigned its timestamp must hold the
// entry, so others "can request the entry from G_j if group G_i crashes".
type EntryFetch struct {
	Entry types.EntryID
}

// WireSize returns the serialized size in bytes.
func (m *EntryFetch) WireSize() int { return 1 + 12 }

// ChunkRepairReq NACKs the chunk indexes a receiver still needs for a
// stalled entry (lossy-WAN recovery): when a Collector bucket sits below
// n_data past the repair timeout, the receiver requests exactly the missing
// indexes from a LAN peer (which replies with a BatchFwd of its re-encoded
// chunks) or from an alternate sender-group node (which replies with a fresh
// ChunkBatch).
type ChunkRepairReq struct {
	Entry   types.EntryID
	Missing []int
}

// WireSize returns the serialized size in bytes.
func (m *ChunkRepairReq) WireSize() int { return 1 + 12 + 4 + 4*len(m.Missing) }

// StreamFetch NACKs a record-stream gap: MetaBatches are broadcast exactly
// once and unacknowledged, so a batch lost to the lossy WAN stalls the
// receiver's FIFO cursor forever. The receiver asks a LAN peer or an
// origin-group node to retransmit the origin's batches from its cursor;
// batches carry their own certificates, so any holder can serve.
type StreamFetch struct {
	Origin int
	From   uint64
}

// WireSize returns the serialized size in bytes.
func (m *StreamFetch) WireSize() int { return 1 + 4 + 8 }

// PendingEntry is one known-but-unexecuted entry inside a Checkpoint. Entry
// and Cert are set when the folding node holds the content; otherwise the
// restoring node re-acquires it through the Lemma V.1 fetch path.
type PendingEntry struct {
	ID    types.EntryID
	Entry *types.Entry
	Cert  *keys.Certificate
	// StampedBy is a group known to hold the entry; Streams lists the group
	// clocks that stamped it; Stamps the groups holding it (accept progress).
	StampedBy  int
	Streams    []int
	Stamps     []int
	Committed  bool
	CommitSeen bool
}

// WireSize returns the serialized size in bytes.
func (p *PendingEntry) WireSize() int {
	n := 12 + 4 + 4*len(p.Streams) + 4*len(p.Stamps) + 2
	if p.Entry != nil {
		n += p.Entry.WireSize()
	}
	if p.Cert != nil {
		n += p.Cert.Size()
	}
	return n
}

// SuspectEdge is one standing suspicion inside a Checkpoint: group Origin
// holds a certified, unrevoked RecSuspect for group Suspected, with Origin's
// stream cursor Cursor at suspicion time.
type SuspectEdge struct {
	Suspected, Origin int
	Cursor            uint64
}

// Checkpoint is a fold of one node's full replicated state at a virtual
// instant: the sealed ledger (suffix), the state store, the ordering
// machinery, both PBFT instances, and every in-flight entry. A recovering
// node installs it wholesale and resumes from there (checkpointed rejoin).
// The installer does not trust the serving LAN peer: it recomputes the
// suffix's hash chain and state-roll links against its own certified ledger
// head before appending anything (rejoin-badsuffix on mismatch).
type Checkpoint struct {
	Height    uint64
	Blocks    []*ledger.Block
	State     *statedb.Store
	StateRoll [32]byte

	Clk         uint64
	NextSeq     uint64
	ExecutedSeq []uint64
	ExecCount   int
	CommitCount int

	// StreamTS / StreamNext are the per-group clock high-water marks and the
	// per-origin next-expected MetaBatch sequence numbers. Batches carries
	// out-of-order stream batches the folding node has buffered but not yet
	// processed, so the restoring node does not lose them (they were
	// broadcast exactly once).
	StreamTS   []uint64
	StreamNext []uint64
	Batches    []*MetaBatch
	// StreamView is the per-origin view fence (highest Record.View processed
	// per stream); restoring it keeps the rejoined node dropping the same
	// stale-view records as everyone else.
	StreamView []uint64

	LocalView, LocalSlot uint64
	LocalSlots           []pbft.ExportedSlot
	MetaView, MetaSlot   uint64
	MetaSlots            []pbft.ExportedSlot

	// Ord is the async (VTS) orderer snapshot; Round/Skipped the round-mode
	// one. Exactly one is populated, matching the cluster's ordering mode.
	Ord     *order.State
	Round   uint64
	Skipped []types.EntryID

	Pending []PendingEntry

	// Failover state (quorum-witnessed group death): DeadGroups/DeadCuts are
	// the certified-dead groups and their stream cut positions (parallel
	// slices); Suspects the standing (unrevoked) suspicion edges; OwnSuspects
	// the groups the folding node's own group currently suspects — derived
	// from the own certified stream, so it must survive a rejoin for leader
	// changes to preserve suspicion/revocation duties.
	DeadGroups  []int
	DeadCuts    []uint64
	Suspects    []SuspectEdge
	OwnSuspects []int

	// Membership state (certified epoch reconfiguration, DESIGN.md §11):
	// Epoch counts certified RecEpoch switches; Standby lists groups
	// provisioned but not yet joined; Departed groups removed by a leave cut
	// (their fence position rides in DeadGroups/DeadCuts); JoinStart* map a
	// joined group to its first proposable seq (parallel slices — rounds
	// below it are skipped cluster-wide). JoinVotes/LeaveVotes are the
	// standing certified approvals of an in-flight membership op, reusing
	// the SuspectEdge shape: Suspected = target, Origin = approving group,
	// Cursor = the approver's target-stream cursor (leave votes only).
	Epoch           uint64
	Standby         []int
	Departed        []int
	JoinStartGroups []int
	JoinStartSeqs   []uint64
	JoinVotes       []SuspectEdge
	LeaveVotes      []SuspectEdge
	// CommitHi[g] is the highest own-entry commit seq certified in group g's
	// stream as processed by the folding node — the watermark bounding both
	// pre-join round skips and the join boundary a coordinator may certify,
	// so it must survive a rejoin.
	CommitHi []uint64
}

// WireSize returns the serialized size in bytes (transfer cost model).
func (c *Checkpoint) WireSize() int {
	n := 128 // fixed-width fields
	n += len(c.Blocks) * 112
	if c.State != nil {
		n += c.State.ByteSize()
	}
	n += 8*len(c.ExecutedSeq) + 8*len(c.StreamTS) + 8*len(c.StreamNext) + 8*len(c.StreamView)
	for i := range c.LocalSlots {
		n += c.LocalSlots[i].WireSize()
	}
	for i := range c.MetaSlots {
		n += c.MetaSlots[i].WireSize()
	}
	if c.Ord != nil {
		n += 8*len(c.Ord.ExecutedSeq) + len(c.Ord.Entries)*(12+9*len(c.Ord.ExecutedSeq))
	}
	n += 12 * len(c.Skipped)
	for i := range c.Pending {
		n += c.Pending[i].WireSize()
	}
	n += 12*len(c.DeadGroups) + 16*len(c.Suspects) + 4*len(c.OwnSuspects)
	n += 8 + 4*len(c.Standby) + 4*len(c.Departed) + 12*len(c.JoinStartGroups)
	n += 16*len(c.JoinVotes) + 16*len(c.LeaveVotes) + 8*len(c.CommitHi)
	return n
}

// RejoinReq asks a group peer for a state transfer. Have is the requester's
// sealed ledger height, so the response only carries the block suffix it
// lacks.
type RejoinReq struct {
	Have uint64
}

// WireSize returns the serialized size in bytes.
func (m *RejoinReq) WireSize() int { return 1 + 8 }

// ProposalFwd relays a locally-proposed entry whose slot a view change filled
// with a no-op to the group's current local leader for re-proposal. Only the
// original proposer still holds the content (clients are not modeled as
// retrying), so without the relay a destroyed proposal would leave a
// permanent seq hole and wedge the group clock.
type ProposalFwd struct {
	Payload []byte
}

// WireSize returns the serialized size in bytes.
func (m *ProposalFwd) WireSize() int { return 1 + len(m.Payload) }

// RejoinResp carries the checkpoint a recovering node installs.
type RejoinResp struct {
	C *Checkpoint
}

// WireSize returns the serialized size in bytes.
func (m *RejoinResp) WireSize() int {
	if m.C == nil {
		return 1
	}
	return 1 + m.C.WireSize()
}

// ReconfigureMsg is the admin trigger for a membership change: join a
// provisioned standby group or remove an active one. It is unauthenticated
// intent, not a decision — every correct meta leader that processes it emits
// its group's certified RecGroupJoin/RecGroupLeave approval, and only a
// Byzantine quorum of those certified approvals (plus, for a join, the
// target's readiness attestation) lets the coordinator certify the RecEpoch
// switch. A lost or duplicated trigger is therefore harmless.
type ReconfigureMsg struct {
	Op    byte // ReconfigJoin or ReconfigLeave
	Group int
}

// WireSize returns the serialized size in bytes.
func (m *ReconfigureMsg) WireSize() int { return 1 + 1 + 4 }

// ClientRequest carries one signed client transaction into a gateway: from a
// client connection to any group node, and from a non-leader's gateway to the
// group's current local leader (whose batcher cuts it into a proposal). The
// transaction's Sig covers keys.ClientRequestMessage(Client, Nonce, Payload).
type ClientRequest struct {
	Txn types.Transaction
}

// WireSize returns the serialized size in bytes.
func (m *ClientRequest) WireSize() int { return 1 + m.Txn.WireSize() }

// Client reply status codes. Stable wire contract: never renumber.
const (
	// ReplyOK: the request executed in the entry sealed at Height.
	ReplyOK byte = 1
	// ReplyDup: the request was a duplicate within the dedup window; the
	// reply carries the cached result of the original execution.
	ReplyDup byte = 2
)

// ClientReply is one node's answer to one client transaction: the node's
// execution receipt for the whole entry plus this transaction's place in it.
// Every node of the entry's origin group sends one after executing; a client
// accepts a result once it holds f+1 replies from distinct group nodes that
// match on (GID, Height, Result) — enough to include at least one honest
// node. Sig covers keys.ReceiptMessage(Status, GID, Height, Result, root,
// Leaves) and is the same bytes in every reply the node sends for the
// entry; root is not carried — the client computes it from its own (Client,
// Nonce) as leaf Index of a Leaves-leaf tree and the sibling Path (exactly
// merkle.Depth(Leaves) hashes), so a reply that proves someone else's
// transaction yields a root the signature does not cover. A ReplyDup answer
// is a receipt over a one-leaf tree: Leaves 1, Index 0, no Path.
type ClientReply struct {
	Client uint64
	Nonce  uint64
	Status byte
	GID    int
	Height uint64
	Result []byte
	Leaves int
	Index  int
	Path   [][merkle.HashSize]byte
	Sig    keys.Signature
}

// Reply is m as the client's gateway.Requester takes it.
func (m *ClientReply) Reply() gateway.Reply {
	return gateway.Reply{
		Client: m.Client, Nonce: m.Nonce, Status: m.Status,
		GID: m.GID, Height: m.Height, Result: m.Result,
		Leaves: m.Leaves, Index: m.Index, Path: m.Path,
		Signer: m.Sig.Signer, Sig: m.Sig.Sig,
	}
}

// MaxReceiptLeaves bounds ClientReply.Leaves on the wire: 2^20 client
// transactions in one entry (a 20-hash path), far above any MaxBatch a frame
// can carry.
const MaxReceiptLeaves = 1 << 20

// WireSize returns the serialized size in bytes.
func (m *ClientReply) WireSize() int {
	return 1 + 8 + 8 + 1 + 4 + 8 + 4 + len(m.Result) + 4 + 4 + merkle.HashSize*len(m.Path) + 8 + 4 + len(m.Sig.Sig)
}

// SignReplies is the one place a node turns an executed entry (or a
// dedup-window answer) into replies, on either fabric: one signature over
// the receipt, then one ClientReply per addressee, in the receipt's order,
// all sharing that signature. sign is the node's KeyPair.Sign.
func SignReplies(id keys.NodeID, sign func(msg []byte) []byte, rc *gateway.Receipt, out func(*ClientReply)) {
	leaves := rc.Tree.LeafCount()
	sig := keys.Signature{
		Signer: id,
		Sig:    sign(keys.ReceiptMessage(nil, rc.Status, id.Group, rc.Height, rc.Result, rc.Tree.Root(), leaves)),
	}
	for _, to := range rc.To {
		proof, err := rc.Tree.Prove(to.Index)
		if err != nil {
			panic(err) // the gateway indexes addressees into its own tree
		}
		out(&ClientReply{
			Client: to.Client, Nonce: to.Nonce, Status: rc.Status,
			GID: id.Group, Height: rc.Height, Result: rc.Result,
			Leaves: leaves, Index: to.Index, Path: proof.Siblings, Sig: sig,
		})
	}
}
