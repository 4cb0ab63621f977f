package cluster

// The envelope codec: a deterministic, self-describing binary encoding for
// every message a node can put on the wire (the payload types of this
// package plus their nested pbft/replication/types structures). The simnet
// fabric passes payloads by pointer and only models their WireSize; the real
// TCP backend (internal/transport/tcp) moves actual bytes, and this codec is
// what it moves.
//
// Design rules:
//
//   - One byte of envelope kind, then the message body. Framing (length,
//     version, checksum) is the transport's job (transport.WriteFrame);
//     this layer assumes it gets back exactly the bytes it produced.
//   - Canonical sub-encodings are reused, not re-invented: records travel as
//     EncodeRecords (the bytes meta certificates bind), entries as
//     types.Entry.Encode (the bytes entry certificates and erasure coding
//     bind), state snapshots as statedb.Save. A parallel encoding would let
//     certified bytes and transported bytes drift apart.
//   - Decoding is strict and total: every length is bounds-checked against
//     the remaining input before allocation, unknown kinds and trailing
//     bytes are errors, and no input can panic the decoder (fuzzed by
//     FuzzEnvelopeRoundTrip).
//   - Encodings are canonical: re-encoding a decoded message reproduces the
//     input byte-for-byte. (Sole exception: a Checkpoint's embedded statedb
//     snapshot is canonical per store *content* — sorted keys — so a
//     hand-crafted unsorted snapshot decodes to a store that re-encodes
//     sorted. Encoded-side output is always canonical.)

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/merkle"
	"massbft/internal/order"
	"massbft/internal/pbft"
	"massbft/internal/replication"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// Envelope kind bytes. Stable wire contract: never renumber, only append.
// 3 and 4 carried the single-chunk form ChunkBatch replaced; they are retired,
// never reused, and decode as ErrEnvelopeKind.
const (
	envLocalMsg       = 1
	envMetaMsg        = 2
	envChunkBatch     = 5
	envBatchFwd       = 6
	envEntryWAN       = 7
	envEntryFwd       = 8
	envMetaBatch      = 9
	envEntryFetch     = 10
	envChunkRepairReq = 11
	envStreamFetch    = 12
	envProposalFwd    = 13
	envRejoinReq      = 14
	envRejoinResp     = 15
	envClientRequest  = 16
	envClientReply    = 17
	envReconfigure    = 18
)

// envelopeKindNames maps kind bytes to stable lower-case names, used for
// per-kind transport metrics (transport-drop-<kind>).
var envelopeKindNames = map[byte]string{
	envLocalMsg:       "local-msg",
	envMetaMsg:        "meta-msg",
	envChunkBatch:     "chunk-batch",
	envBatchFwd:       "batch-fwd",
	envEntryWAN:       "entry-wan",
	envEntryFwd:       "entry-fwd",
	envMetaBatch:      "meta-batch",
	envEntryFetch:     "entry-fetch",
	envChunkRepairReq: "chunk-repair",
	envStreamFetch:    "stream-fetch",
	envProposalFwd:    "proposal-fwd",
	envRejoinReq:      "rejoin-req",
	envRejoinResp:     "rejoin-resp",
	envClientRequest:  "client-request",
	envClientReply:    "client-reply",
	envReconfigure:    "reconfigure",
}

// EnvelopeKindName returns the stable metric-friendly name of an envelope
// kind byte (the first byte of every encoded envelope), or "kind-N" for
// bytes outside the wire contract.
func EnvelopeKindName(k byte) string {
	if name, ok := envelopeKindNames[k]; ok {
		return name
	}
	return fmt.Sprintf("kind-%d", k)
}

// pbft message sub-kinds inside envLocalMsg / envMetaMsg.
const (
	pbPrePrepare  = 1
	pbPrepare     = 2
	pbCommit      = 3
	pbViewChange  = 4
	pbNewView     = 5
	pbSlotRequest = 6
	pbSlotReply   = 7
)

// Codec errors.
var (
	ErrEnvelopeKind  = errors.New("cluster: unknown envelope kind")
	ErrEnvelopeShort = errors.New("cluster: truncated envelope")
	ErrEnvelopeTrail = errors.New("cluster: trailing bytes after envelope")
)

// EncodeEnvelope serializes any node-to-node payload. It returns an error
// for types that are not part of the wire contract.
func EncodeEnvelope(payload any) ([]byte, error) {
	w := &wireWriter{}
	switch m := payload.(type) {
	case *LocalMsg:
		w.u8(envLocalMsg)
		if err := w.pbftMsg(m.M); err != nil {
			return nil, err
		}
	case *MetaMsg:
		w.u8(envMetaMsg)
		if err := w.pbftMsg(m.M); err != nil {
			return nil, err
		}
	case *replication.ChunkBatch:
		w.u8(envChunkBatch)
		w.chunkBatch(m)
	case *BatchFwd:
		w.u8(envBatchFwd)
		w.chunkBatch(m.B)
	case *EntryWAN:
		w.u8(envEntryWAN)
		w.entryMsg(m.E)
	case *EntryFwd:
		w.u8(envEntryFwd)
		w.entryMsg(m.E)
	case *MetaBatch:
		w.u8(envMetaBatch)
		w.metaBatch(m)
	case *EntryFetch:
		w.u8(envEntryFetch)
		w.entryID(m.Entry)
	case *ChunkRepairReq:
		w.u8(envChunkRepairReq)
		w.entryID(m.Entry)
		w.intSlice(m.Missing)
	case *StreamFetch:
		w.u8(envStreamFetch)
		w.u32(uint32(m.Origin))
		w.u64(m.From)
	case *ProposalFwd:
		w.u8(envProposalFwd)
		w.bytes(m.Payload)
	case *RejoinReq:
		w.u8(envRejoinReq)
		w.u64(m.Have)
	case *RejoinResp:
		w.u8(envRejoinResp)
		if err := w.checkpointOpt(m.C); err != nil {
			return nil, err
		}
	case *ClientRequest:
		w.u8(envClientRequest)
		w.u64(m.Txn.Client)
		w.u64(m.Txn.Nonce)
		w.bytes(m.Txn.Payload)
		w.bytes(m.Txn.Sig)
	case *ClientReply:
		w.u8(envClientReply)
		w.u64(m.Client)
		w.u64(m.Nonce)
		w.u8(m.Status)
		w.u32(uint32(m.GID))
		w.u64(m.Height)
		w.bytes(m.Result)
		w.u32(uint32(m.Leaves))
		w.u32(uint32(m.Index))
		for _, h := range m.Path {
			w.hash32(h)
		}
		w.sig(m.Sig)
	case *ReconfigureMsg:
		w.u8(envReconfigure)
		w.u8(m.Op)
		w.u32(uint32(m.Group))
	default:
		return nil, fmt.Errorf("cluster: cannot encode %T as envelope", payload)
	}
	return w.b, nil
}

// DecodeEnvelope parses bytes produced by EncodeEnvelope. Arbitrary input is
// safe: malformed envelopes return an error, never panic.
func DecodeEnvelope(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, ErrEnvelopeShort
	}
	r := &wireReader{b: buf[1:]}
	var out any
	switch buf[0] {
	case envLocalMsg:
		out = &LocalMsg{M: r.pbftMsg()}
	case envMetaMsg:
		out = &MetaMsg{M: r.pbftMsg()}
	case envChunkBatch:
		out = r.chunkBatch()
	case envBatchFwd:
		out = &BatchFwd{B: r.chunkBatch()}
	case envEntryWAN:
		out = &EntryWAN{E: r.entryMsg()}
	case envEntryFwd:
		out = &EntryFwd{E: r.entryMsg()}
	case envMetaBatch:
		out = r.metaBatch()
	case envEntryFetch:
		out = &EntryFetch{Entry: r.entryID()}
	case envChunkRepairReq:
		out = &ChunkRepairReq{Entry: r.entryID(), Missing: r.intSlice()}
	case envStreamFetch:
		out = &StreamFetch{Origin: int(r.u32()), From: r.u64()}
	case envProposalFwd:
		out = &ProposalFwd{Payload: r.bytes()}
	case envRejoinReq:
		out = &RejoinReq{Have: r.u64()}
	case envRejoinResp:
		out = &RejoinResp{C: r.checkpointOpt()}
	case envClientRequest:
		m := &ClientRequest{}
		m.Txn.Client = r.u64()
		m.Txn.Nonce = r.u64()
		m.Txn.Payload = r.bytes()
		m.Txn.Sig = r.bytes()
		out = m
	case envClientReply:
		m := &ClientReply{
			Client: r.u64(),
			Nonce:  r.u64(),
			Status: r.u8(),
			GID:    int(r.u32()),
			Height: r.u64(),
			Result: r.bytes(),
		}
		m.Leaves, m.Index, m.Path = r.receiptPath()
		m.Sig = r.sig()
		out = m
	case envReconfigure:
		out = &ReconfigureMsg{Op: r.u8(), Group: int(r.u32())}
	default:
		return nil, fmt.Errorf("%w: %d", ErrEnvelopeKind, buf[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, ErrEnvelopeTrail
	}
	return out, nil
}

// --- writer ---

type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v byte)    { w.b = append(w.b, v) }
func (w *wireWriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wireWriter) boolb(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wireWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *wireWriter) hash32(h [32]byte) { w.b = append(w.b, h[:]...) }
func (w *wireWriter) nodeID(id keys.NodeID) {
	w.u32(uint32(id.Group))
	w.u32(uint32(id.Index))
}
func (w *wireWriter) entryID(id types.EntryID) {
	w.u32(uint32(id.GID))
	w.u64(id.Seq)
}
func (w *wireWriter) sig(s keys.Signature) {
	w.nodeID(s.Signer)
	w.bytes(s.Sig)
}
func (w *wireWriter) cert(c *keys.Certificate) {
	if c == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u32(uint32(c.Group))
	w.hash32(c.Digest)
	w.u32(uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		w.sig(s)
	}
}
func (w *wireWriter) u64Slice(v []uint64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}
func (w *wireWriter) intSlice(v []int) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u32(uint32(x))
	}
}
func (w *wireWriter) boolSlice(v []bool) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.boolb(x)
	}
}
func (w *wireWriter) siblings(s [][merkle.HashSize]byte) {
	w.u32(uint32(len(s)))
	for _, h := range s {
		w.hash32(h)
	}
}

func (w *wireWriter) pbftMsg(m pbft.Msg) error {
	switch p := m.(type) {
	case *pbft.PrePrepare:
		w.u8(pbPrePrepare)
		w.prePrepare(p)
	case *pbft.Prepare:
		w.u8(pbPrepare)
		w.u64(p.View)
		w.u64(p.Slot)
		w.hash32(p.Digest)
		w.sig(p.Sig)
	case *pbft.Commit:
		w.u8(pbCommit)
		w.u64(p.View)
		w.u64(p.Slot)
		w.hash32(p.Digest)
		w.sig(p.Share)
	case *pbft.ViewChange:
		w.u8(pbViewChange)
		w.u64(p.NewView)
		w.u32(uint32(len(p.Prepared)))
		for _, pi := range p.Prepared {
			w.u64(pi.Slot)
			w.hash32(pi.Digest)
			w.bytes(pi.Payload)
		}
		w.sig(p.Sig)
	case *pbft.NewView:
		w.u8(pbNewView)
		w.u64(p.View)
		w.u32(uint32(len(p.Reproposals)))
		for _, pp := range p.Reproposals {
			w.prePrepare(pp)
		}
		w.sig(p.Sig)
	case *pbft.SlotRequest:
		w.u8(pbSlotRequest)
		w.u64(p.From)
	case *pbft.SlotReply:
		w.u8(pbSlotReply)
		if p.NV == nil {
			w.u8(0)
		} else {
			w.u8(1)
			w.u64(p.NV.View)
			w.u32(uint32(len(p.NV.Reproposals)))
			for _, pp := range p.NV.Reproposals {
				w.prePrepare(pp)
			}
			w.sig(p.NV.Sig)
		}
		w.u32(uint32(len(p.Slots)))
		for _, s := range p.Slots {
			w.u64(s.Slot)
			w.bytes(s.Payload)
			w.cert(s.Cert)
		}
	default:
		return fmt.Errorf("cluster: cannot encode pbft message %T", m)
	}
	return nil
}

func (w *wireWriter) prePrepare(p *pbft.PrePrepare) {
	w.u64(p.View)
	w.u64(p.Slot)
	w.hash32(p.Digest)
	w.bytes(p.Payload)
	w.sig(p.Sig)
}

func (w *wireWriter) chunkBatch(m *replication.ChunkBatch) {
	w.entryID(m.Entry)
	w.hash32(m.Root)
	w.u32(uint32(m.Total))
	w.u32(uint32(m.Data))
	w.u32(uint32(m.DataLen))
	w.intSlice(m.Indices)
	w.intSlice(m.Proof.Indices)
	w.siblings(m.Proof.Siblings)
	w.u32(uint32(len(m.Chunks)))
	for _, c := range m.Chunks {
		w.bytes(c)
	}
	w.cert(m.Cert)
}

func (w *wireWriter) entryOpt(e *types.Entry) {
	if e == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.bytes(e.Encode())
}

func (w *wireWriter) entryMsg(m *replication.EntryMsg) {
	w.entryOpt(m.Entry)
	w.cert(m.Cert)
}

func (w *wireWriter) metaBatch(m *MetaBatch) {
	w.u32(uint32(m.FromGroup))
	w.u64(m.Seq)
	// Records travel as their canonical certified encoding: the meta
	// certificate binds exactly these bytes.
	w.bytes(EncodeRecords(m.Records))
	w.cert(m.Cert)
}

func (w *wireWriter) checkpointOpt(c *Checkpoint) error {
	if c == nil {
		w.u8(0)
		return nil
	}
	w.u8(1)
	w.u64(c.Height)
	w.u32(uint32(len(c.Blocks)))
	for _, b := range c.Blocks {
		w.u64(b.Height)
		w.hash32(b.Prev)
		w.entryID(b.Entry)
		w.hash32(b.EntryDigest)
		w.u32(b.Committed)
		w.u32(b.Aborted)
		w.hash32(b.StateDigest)
	}
	if c.State == nil {
		w.u8(0)
	} else {
		w.u8(1)
		var sb bytes.Buffer
		if err := c.State.Save(&sb); err != nil {
			return fmt.Errorf("cluster: encoding checkpoint state: %w", err)
		}
		w.bytes(sb.Bytes())
	}
	w.hash32(c.StateRoll)
	w.u64(c.Clk)
	w.u64(c.NextSeq)
	w.u64Slice(c.ExecutedSeq)
	w.u64(uint64(c.ExecCount))
	w.u64(uint64(c.CommitCount))
	w.u64Slice(c.StreamTS)
	w.u64Slice(c.StreamNext)
	w.u32(uint32(len(c.Batches)))
	for _, b := range c.Batches {
		w.metaBatch(b)
	}
	w.u64Slice(c.StreamView)
	w.u64(c.LocalView)
	w.u64(c.LocalSlot)
	w.exportedSlots(c.LocalSlots)
	w.u64(c.MetaView)
	w.u64(c.MetaSlot)
	w.exportedSlots(c.MetaSlots)
	if c.Ord == nil {
		w.u8(0)
	} else {
		w.u8(1)
		w.u64Slice(c.Ord.ExecutedSeq)
		w.u32(uint32(len(c.Ord.Entries)))
		for _, e := range c.Ord.Entries {
			w.entryID(e.ID)
			w.u64Slice(e.VTS)
			w.boolSlice(e.Set)
		}
	}
	w.u64(c.Round)
	w.u32(uint32(len(c.Skipped)))
	for _, id := range c.Skipped {
		w.entryID(id)
	}
	w.u32(uint32(len(c.Pending)))
	for i := range c.Pending {
		p := &c.Pending[i]
		w.entryID(p.ID)
		w.entryOpt(p.Entry)
		w.cert(p.Cert)
		w.u32(uint32(p.StampedBy))
		w.intSlice(p.Streams)
		w.intSlice(p.Stamps)
		w.boolb(p.Committed)
		w.boolb(p.CommitSeen)
	}
	w.intSlice(c.DeadGroups)
	w.u64Slice(c.DeadCuts)
	w.u32(uint32(len(c.Suspects)))
	for _, s := range c.Suspects {
		w.u32(uint32(s.Suspected))
		w.u32(uint32(s.Origin))
		w.u64(s.Cursor)
	}
	w.u64(c.Epoch)
	w.intSlice(c.Standby)
	w.intSlice(c.Departed)
	w.suspectEdges(c.JoinVotes)
	w.suspectEdges(c.LeaveVotes)
	w.u64Slice(c.CommitHi)
	return nil
}

func (w *wireWriter) suspectEdges(edges []SuspectEdge) {
	w.u32(uint32(len(edges)))
	for _, s := range edges {
		w.u32(uint32(s.Suspected))
		w.u32(uint32(s.Origin))
		w.u64(s.Cursor)
	}
}

func (w *wireWriter) exportedSlots(slots []pbft.ExportedSlot) {
	w.u32(uint32(len(slots)))
	for i := range slots {
		s := &slots[i]
		w.u64(s.Slot)
		w.hash32(s.Digest)
		w.bytes(s.Payload)
		w.u32(uint32(len(s.Prepares)))
		for _, id := range s.Prepares {
			w.nodeID(id)
		}
		w.u32(uint32(len(s.Commits)))
		for _, sg := range s.Commits {
			w.sig(sg)
		}
		w.boolb(s.Committed)
	}
}

// --- reader ---

// wireReader consumes the envelope body with a sticky error: after the first
// malformed field every subsequent read returns zero values, and the caller
// checks err once at the end. Length prefixes are bounds-checked against the
// remaining input before any allocation, so a hostile length cannot balloon
// memory.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrEnvelopeShort, what)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("u8")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) boolb() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		// Reject non-canonical booleans so decode∘encode is the identity.
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical bool")
		}
		return false
	}
}

func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("bytes")
		return nil
	}
	if n == 0 {
		r.b = r.b[0:]
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

func (r *wireReader) hash32() (h [32]byte) {
	if r.err != nil {
		return
	}
	if len(r.b) < 32 {
		r.fail("hash")
		return
	}
	copy(h[:], r.b)
	r.b = r.b[32:]
	return
}

// count reads a slice length and sanity-bounds it: each element occupies at
// least min bytes of the remaining input.
func (r *wireReader) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*min > len(r.b) {
		r.fail("count")
		return 0
	}
	return n
}

func (r *wireReader) nodeID() keys.NodeID {
	g := r.u32()
	i := r.u32()
	return keys.NodeID{Group: int(g), Index: int(i)}
}

func (r *wireReader) entryID() types.EntryID {
	g := r.u32()
	s := r.u64()
	return types.EntryID{GID: int(g), Seq: s}
}

func (r *wireReader) sig() keys.Signature {
	id := r.nodeID()
	return keys.Signature{Signer: id, Sig: r.bytes()}
}

func (r *wireReader) cert() *keys.Certificate {
	switch r.u8() {
	case 0:
		return nil
	case 1:
	default:
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical certificate presence")
		}
		return nil
	}
	c := &keys.Certificate{Group: int(r.u32()), Digest: r.hash32()}
	n := r.count(12)
	for i := 0; i < n && r.err == nil; i++ {
		c.Sigs = append(c.Sigs, r.sig())
	}
	return c
}

func (r *wireReader) u64Slice() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.u64()
	}
	return v
}

func (r *wireReader) intSlice() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(r.u32())
	}
	return v
}

func (r *wireReader) boolSlice() []bool {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = r.boolb()
	}
	return v
}

func (r *wireReader) siblings() [][merkle.HashSize]byte {
	n := r.count(merkle.HashSize)
	if n == 0 {
		return nil
	}
	v := make([][merkle.HashSize]byte, n)
	for i := range v {
		v[i] = r.hash32()
	}
	return v
}

// receiptPath reads a ClientReply's place in its receipt tree. The path has
// no length of its own on the wire: it is exactly merkle.Depth(leaves)
// hashes, and leaves is bounded, so what gets allocated is at most 20 hashes
// that are checked to be there.
func (r *wireReader) receiptPath() (leaves, index int, path [][merkle.HashSize]byte) {
	nl, ni := r.u32(), r.u32()
	if r.err != nil {
		return 0, 0, nil
	}
	if nl < 1 || nl > MaxReceiptLeaves || ni >= nl {
		r.err = errors.New("cluster: receipt leaf count or index out of range")
		return 0, 0, nil
	}
	depth := merkle.Depth(int(nl))
	if depth*merkle.HashSize > len(r.b) {
		r.fail("receipt path")
		return 0, 0, nil
	}
	if depth > 0 {
		path = make([][merkle.HashSize]byte, depth)
		for i := range path {
			path[i] = r.hash32()
		}
	}
	return int(nl), int(ni), path
}

func (r *wireReader) pbftMsg() pbft.Msg {
	switch r.u8() {
	case pbPrePrepare:
		return r.prePrepare()
	case pbPrepare:
		return &pbft.Prepare{View: r.u64(), Slot: r.u64(), Digest: r.hash32(), Sig: r.sig()}
	case pbCommit:
		return &pbft.Commit{View: r.u64(), Slot: r.u64(), Digest: r.hash32(), Share: r.sig()}
	case pbViewChange:
		vc := &pbft.ViewChange{NewView: r.u64()}
		n := r.count(44)
		for i := 0; i < n && r.err == nil; i++ {
			vc.Prepared = append(vc.Prepared, pbft.PreparedInfo{
				Slot: r.u64(), Digest: r.hash32(), Payload: r.bytes(),
			})
		}
		vc.Sig = r.sig()
		return vc
	case pbNewView:
		nv := &pbft.NewView{View: r.u64()}
		n := r.count(64)
		for i := 0; i < n && r.err == nil; i++ {
			nv.Reproposals = append(nv.Reproposals, r.prePrepare())
		}
		nv.Sig = r.sig()
		return nv
	case pbSlotRequest:
		return &pbft.SlotRequest{From: r.u64()}
	case pbSlotReply:
		rep := &pbft.SlotReply{}
		switch r.u8() {
		case 0:
		case 1:
			nv := &pbft.NewView{View: r.u64()}
			n := r.count(64)
			for i := 0; i < n && r.err == nil; i++ {
				nv.Reproposals = append(nv.Reproposals, r.prePrepare())
			}
			nv.Sig = r.sig()
			rep.NV = nv
		default:
			if r.err == nil {
				r.err = errors.New("cluster: non-canonical NewView presence")
			}
			return rep
		}
		n := r.count(13)
		for i := 0; i < n && r.err == nil; i++ {
			rep.Slots = append(rep.Slots, pbft.CommittedSlot{
				Slot: r.u64(), Payload: r.bytes(), Cert: r.cert(),
			})
		}
		return rep
	default:
		if r.err == nil {
			r.err = errors.New("cluster: unknown pbft message kind")
		}
		return nil
	}
}

func (r *wireReader) prePrepare() *pbft.PrePrepare {
	return &pbft.PrePrepare{
		View: r.u64(), Slot: r.u64(), Digest: r.hash32(),
		Payload: r.bytes(), Sig: r.sig(),
	}
}

func (r *wireReader) chunkBatch() *replication.ChunkBatch {
	b := &replication.ChunkBatch{
		Entry:   r.entryID(),
		Root:    r.hash32(),
		Total:   int(r.u32()),
		Data:    int(r.u32()),
		DataLen: int(r.u32()),
		Indices: r.intSlice(),
	}
	b.Proof.Indices = r.intSlice()
	b.Proof.Siblings = r.siblings()
	n := r.count(4)
	for i := 0; i < n && r.err == nil; i++ {
		b.Chunks = append(b.Chunks, r.bytes())
	}
	b.Cert = r.cert()
	return b
}

func (r *wireReader) entryOpt() *types.Entry {
	switch r.u8() {
	case 0:
		return nil
	case 1:
	default:
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical entry presence")
		}
		return nil
	}
	enc := r.bytes()
	if r.err != nil {
		return nil
	}
	e, err := types.DecodeEntry(enc)
	if err != nil {
		r.err = err
		return nil
	}
	return e
}

func (r *wireReader) entryMsg() *replication.EntryMsg {
	return &replication.EntryMsg{Entry: r.entryOpt(), Cert: r.cert()}
}

func (r *wireReader) metaBatch() *MetaBatch {
	m := &MetaBatch{FromGroup: int(r.u32()), Seq: r.u64()}
	enc := r.bytes()
	if r.err != nil {
		return m
	}
	recs, ok := DecodeRecords(enc)
	if !ok {
		r.err = errors.New("cluster: malformed record block in MetaBatch")
		return m
	}
	m.Records = recs
	m.Cert = r.cert()
	return m
}

func (r *wireReader) checkpointOpt() *Checkpoint {
	switch r.u8() {
	case 0:
		return nil
	case 1:
	default:
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical checkpoint presence")
		}
		return nil
	}
	c := &Checkpoint{Height: r.u64()}
	n := r.count(128)
	for i := 0; i < n && r.err == nil; i++ {
		c.Blocks = append(c.Blocks, &ledger.Block{
			Height:      r.u64(),
			Prev:        r.hash32(),
			Entry:       r.entryID(),
			EntryDigest: r.hash32(),
			Committed:   r.u32(),
			Aborted:     r.u32(),
			StateDigest: r.hash32(),
		})
	}
	switch r.u8() {
	case 0:
	case 1:
		enc := r.bytes()
		if r.err == nil {
			st, err := statedb.Load(bytes.NewReader(enc))
			if err != nil {
				r.err = fmt.Errorf("cluster: decoding checkpoint state: %w", err)
			} else {
				c.State = st
			}
		}
	default:
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical state presence")
		}
	}
	c.StateRoll = r.hash32()
	c.Clk = r.u64()
	c.NextSeq = r.u64()
	c.ExecutedSeq = r.u64Slice()
	c.ExecCount = int(r.u64())
	c.CommitCount = int(r.u64())
	c.StreamTS = r.u64Slice()
	c.StreamNext = r.u64Slice()
	n = r.count(17)
	for i := 0; i < n && r.err == nil; i++ {
		c.Batches = append(c.Batches, r.metaBatch())
	}
	c.StreamView = r.u64Slice()
	c.LocalView = r.u64()
	c.LocalSlot = r.u64()
	c.LocalSlots = r.exportedSlots()
	c.MetaView = r.u64()
	c.MetaSlot = r.u64()
	c.MetaSlots = r.exportedSlots()
	switch r.u8() {
	case 0:
	case 1:
		st := &order.State{ExecutedSeq: r.u64Slice()}
		n = r.count(20)
		for i := 0; i < n && r.err == nil; i++ {
			st.Entries = append(st.Entries, order.EntryVTS{
				ID: r.entryID(), VTS: r.u64Slice(), Set: r.boolSlice(),
			})
		}
		c.Ord = st
	default:
		if r.err == nil {
			r.err = errors.New("cluster: non-canonical orderer presence")
		}
	}
	c.Round = r.u64()
	n = r.count(12)
	for i := 0; i < n && r.err == nil; i++ {
		c.Skipped = append(c.Skipped, r.entryID())
	}
	n = r.count(32)
	for i := 0; i < n && r.err == nil; i++ {
		p := PendingEntry{
			ID:        r.entryID(),
			Entry:     r.entryOpt(),
			Cert:      r.cert(),
			StampedBy: int(r.u32()),
			Streams:   r.intSlice(),
			Stamps:    r.intSlice(),
		}
		p.Committed = r.boolb()
		p.CommitSeen = r.boolb()
		c.Pending = append(c.Pending, p)
	}
	c.DeadGroups = r.intSlice()
	c.DeadCuts = r.u64Slice()
	n = r.count(16)
	for i := 0; i < n && r.err == nil; i++ {
		c.Suspects = append(c.Suspects, SuspectEdge{
			Suspected: int(r.u32()), Origin: int(r.u32()), Cursor: r.u64(),
		})
	}
	c.Epoch = r.u64()
	c.Standby = r.intSlice()
	c.Departed = r.intSlice()
	c.JoinVotes = r.suspectEdges()
	c.LeaveVotes = r.suspectEdges()
	c.CommitHi = r.u64Slice()
	return c
}

func (r *wireReader) suspectEdges() []SuspectEdge {
	n := r.count(16)
	var out []SuspectEdge
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, SuspectEdge{
			Suspected: int(r.u32()), Origin: int(r.u32()), Cursor: r.u64(),
		})
	}
	return out
}

func (r *wireReader) exportedSlots() []pbft.ExportedSlot {
	n := r.count(49)
	var out []pbft.ExportedSlot
	for i := 0; i < n && r.err == nil; i++ {
		s := pbft.ExportedSlot{
			Slot:    r.u64(),
			Digest:  r.hash32(),
			Payload: r.bytes(),
		}
		pn := r.count(8)
		for j := 0; j < pn && r.err == nil; j++ {
			s.Prepares = append(s.Prepares, r.nodeID())
		}
		cn := r.count(12)
		for j := 0; j < cn && r.err == nil; j++ {
			s.Commits = append(s.Commits, r.sig())
		}
		s.Committed = r.boolb()
		out = append(out, s)
	}
	return out
}
