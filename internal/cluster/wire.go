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
//   - One walk per type: each layout is written once, as a walk over the
//     type's fields in wire order that encoding and decoding share (codec).
//     A list's decode bound is the encoded length of its element's zero
//     value, taken from that element's own walk (the least* variables), so
//     no bound can disagree with the layout it bounds.
//   - Canonical sub-encodings are reused, not re-invented: records travel as
//     EncodeRecords (the bytes meta certificates bind), entries as
//     types.Entry.Encode (the bytes entry certificates and erasure coding
//     bind), state snapshots as statedb.Save. A parallel encoding would let
//     certified bytes and transported bytes drift apart.
//   - Decoding is strict and total: every length is bounds-checked against
//     the remaining input before allocation, unknown kinds and trailing
//     bytes are errors, and no input can panic the decoder (fuzzed by
//     FuzzEnvelopeRoundTrip).
//   - A decoded message aliases its input: byte fields are capacity-clipped
//     slices of it, so the caller hands over a buffer nobody writes again
//     (ReadFrame's payload). Certificate signatures are the one copy.
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
	"sync"

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

// envelopeNew makes the value a decoder fills for each kind byte.
var envelopeNew = [...]func() any{
	envLocalMsg:       func() any { return new(LocalMsg) },
	envMetaMsg:        func() any { return new(MetaMsg) },
	envChunkBatch:     func() any { return new(replication.ChunkBatch) },
	envBatchFwd:       func() any { return new(BatchFwd) },
	envEntryWAN:       func() any { return new(EntryWAN) },
	envEntryFwd:       func() any { return new(EntryFwd) },
	envMetaBatch:      func() any { return new(MetaBatch) },
	envEntryFetch:     func() any { return new(EntryFetch) },
	envChunkRepairReq: func() any { return new(ChunkRepairReq) },
	envStreamFetch:    func() any { return new(StreamFetch) },
	envProposalFwd:    func() any { return new(ProposalFwd) },
	envRejoinReq:      func() any { return new(RejoinReq) },
	envRejoinResp:     func() any { return new(RejoinResp) },
	envClientRequest:  func() any { return new(ClientRequest) },
	envClientReply:    func() any { return new(ClientReply) },
	envReconfigure:    func() any { return new(ReconfigureMsg) },
}

// pbft message sub-kinds inside envLocalMsg / envMetaMsg, and the value a
// decoder fills for each.
const (
	pbPrePrepare  = 1
	pbPrepare     = 2
	pbCommit      = 3
	pbViewChange  = 4
	pbNewView     = 5
	pbSlotRequest = 6
	pbSlotReply   = 7
)

var pbftNew = [...]func() pbft.Msg{
	pbPrePrepare:  func() pbft.Msg { return new(pbft.PrePrepare) },
	pbPrepare:     func() pbft.Msg { return new(pbft.Prepare) },
	pbCommit:      func() pbft.Msg { return new(pbft.Commit) },
	pbViewChange:  func() pbft.Msg { return new(pbft.ViewChange) },
	pbNewView:     func() pbft.Msg { return new(pbft.NewView) },
	pbSlotRequest: func() pbft.Msg { return new(pbft.SlotRequest) },
	pbSlotReply:   func() pbft.Msg { return new(pbft.SlotReply) },
}

// Codec errors.
var (
	ErrEnvelopeKind  = errors.New("cluster: unknown envelope kind")
	ErrEnvelopeShort = errors.New("cluster: truncated envelope")
	ErrEnvelopeTrail = errors.New("cluster: trailing bytes after envelope")

	// Booleans and presence bytes are 0 or 1, so decode∘encode is the
	// identity.
	errNonCanonical = errors.New("cluster: non-canonical bool or presence byte")
)

// encodeScratch holds the buffers EncodeEnvelope walks into. A scratch that
// grew past maxScratch (a checkpoint, a large chunk batch) is not kept, so
// one rare envelope does not pin its size for the process's lifetime.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 64 << 10

// EncodeEnvelope serializes any node-to-node payload into one buffer of
// exactly its size. It returns an error for types that are not part of the
// wire contract.
func EncodeEnvelope(payload any) ([]byte, error) {
	scratch := encodeScratch.Get().(*[]byte)
	c := codec{b: append((*scratch)[:0], 0)} // the kind byte, known once the walk matched the type
	kind := c.message(payload)
	var out []byte
	switch {
	case c.err != nil:
	case kind == 0:
		c.err = fmt.Errorf("cluster: cannot encode %T as envelope", payload)
	default:
		c.b[0] = kind
		out = append(make([]byte, 0, len(c.b)), c.b...)
	}
	if cap(c.b) <= maxScratch {
		*scratch = c.b
		encodeScratch.Put(scratch)
	}
	return out, c.err
}

// DecodeEnvelope parses bytes produced by EncodeEnvelope. Arbitrary input is
// safe: malformed envelopes return an error, never panic.
func DecodeEnvelope(buf []byte) (any, error) {
	if len(buf) == 0 {
		return nil, ErrEnvelopeShort
	}
	if int(buf[0]) >= len(envelopeNew) || envelopeNew[buf[0]] == nil {
		return nil, fmt.Errorf("%w: %d", ErrEnvelopeKind, buf[0])
	}
	m := envelopeNew[buf[0]]()
	c := codec{b: buf[1:], dec: true}
	c.message(m)
	if c.err != nil {
		return nil, c.err
	}
	if len(c.b) != 0 {
		return nil, ErrEnvelopeTrail
	}
	return m, nil
}

// codec walks values field by field in wire order. Encoding (dec false)
// appends each field to b. Decoding reads each back from b, the input left,
// with a sticky error: after the first malformed field every read leaves its
// field zero, and the caller checks err once at the end. Length prefixes are
// bounds-checked against the input left before any allocation, so a hostile
// length cannot balloon memory.
type codec struct {
	b   []byte
	dec bool
	err error
}

// fail records a truncation at what, unless an earlier error stands.
func (c *codec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrEnvelopeShort, what)
	}
}

// take consumes the next n input bytes, or returns nil after an error.
func (c *codec) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.fail(what)
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *codec) u8(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.take(1, "u8"); p != nil {
		*v = p[0]
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	} else if p := c.take(4, "u32"); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if p := c.take(8, "u64"); p != nil {
		*v = binary.BigEndian.Uint64(p)
	}
}

// i32 and i64 carry an int as a u32 or a u64.
func (c *codec) i32(v *int) {
	u := uint32(*v)
	c.u32(&u)
	if c.dec {
		*v = int(u)
	}
}

func (c *codec) i64(v *int) {
	u := uint64(*v)
	c.u64(&u)
	if c.dec {
		*v = int(u)
	}
}

func (c *codec) boolean(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.dec {
		if b > 1 {
			c.err = errNonCanonical
		}
		*v = b == 1
	}
}

func hash[H ~[32]byte](c *codec, h *H) {
	if !c.dec {
		v := [32]byte(*h)
		c.b = append(c.b, v[:]...)
	} else if p := c.take(32, "hash"); p != nil {
		*h = H(p)
	}
}

// bytes carries a u32 length, then the bytes. Decoding aliases them in the
// input, capacity-clipped so an append to the field never writes into the
// bytes after it, and reads an empty field as nil.
func (c *codec) bytes(v *[]byte) {
	n := uint32(len(*v))
	c.u32(&n)
	if !c.dec {
		c.b = append(c.b, *v...)
	} else if p := c.take(int(n), "bytes"); len(p) > 0 {
		*v = p[:n:n]
	}
}

// list walks a list's u32 length and returns it; the caller walks the
// elements. Decoding checks that the input left can hold that many elements
// of least bytes each before it allocates them, and reads an empty list as
// nil.
func list[T any](c *codec, s *[]T, least int) int {
	n := uint32(len(*s))
	c.u32(&n)
	if !c.dec || n == 0 {
		return int(n)
	}
	if int(n) < 0 || int(n)*least > len(c.b) {
		c.fail("count")
		return 0
	}
	*s = make([]T, n)
	return int(n)
}

// present walks an optional field's presence byte and reports whether the
// field follows; decoding allocates it.
func present[T any](c *codec, p **T) bool {
	has := *p != nil
	c.boolean(&has)
	if c.dec && has {
		*p = new(T)
	}
	return has
}

// ptr returns the list element *p, allocating it first when decoding.
func ptr[T any](c *codec, p **T) *T {
	if c.dec {
		*p = new(T)
	}
	return *p
}

// Each list's decode bound: the encoded length of its element's zero value,
// taken once from the element's own walk.
var (
	leastU64        = zeroLen((*codec).u64)
	leastInt        = zeroLen((*codec).i32)
	leastBool       = zeroLen((*codec).boolean)
	leastHash       = zeroLen(hash[[32]byte])
	leastBytes      = zeroLen((*codec).bytes)
	leastNodeID     = zeroLen((*codec).nodeID)
	leastSig        = zeroLen((*codec).sig)
	leastEntryID    = zeroLen((*codec).entryID)
	leastPrepared   = zeroLen((*codec).prepared)
	leastPrePrepare = zeroLen((*codec).prePrepare)
	leastSlot       = zeroLen((*codec).committedSlot)
	leastExported   = zeroLen((*codec).exportedSlot)
	leastBlock      = zeroLen((*codec).block)
	leastBatch      = zeroLen((*codec).metaBatch)
	leastVTS        = zeroLen((*codec).entryVTS)
	leastPending    = zeroLen((*codec).pending)
	leastGroup      = zeroLen((*codec).checkpointGroup)
	leastSuspicion  = zeroLen((*codec).suspicion)
)

func zeroLen[T any](walk func(*codec, *T)) int {
	var c codec
	walk(&c, new(T))
	return len(c.b)
}

func (c *codec) u64s(s *[]uint64) {
	for i := range list(c, s, leastU64) {
		c.u64(&(*s)[i])
	}
}

func (c *codec) ints(s *[]int) {
	for i := range list(c, s, leastInt) {
		c.i32(&(*s)[i])
	}
}

func (c *codec) nodeID(id *keys.NodeID) {
	c.i32(&id.Group)
	c.i32(&id.Index)
}

func (c *codec) entryID(id *types.EntryID) {
	c.i32(&id.GID)
	c.u64(&id.Seq)
}

func (c *codec) sig(s *keys.Signature) {
	c.nodeID(&s.Signer)
	c.bytes(&s.Sig)
}

func (c *codec) cert(p **keys.Certificate) {
	if !present(c, p) {
		return
	}
	k := *p
	c.i32(&k.Group)
	hash(c, &k.Digest)
	for i := range list(c, &k.Sigs, leastSig) {
		c.sig(&k.Sigs[i])
	}
	if c.dec {
		ownSigs(k.Sigs)
	}
}

// ownSigs moves decoded signatures out of the input into one buffer of their
// own. A certificate outlives its message (the archive keeps entry
// certificates for partitionHorizon entries per origin), and an alias would
// keep the whole frame it arrived in, chunks and all, alive with it.
func ownSigs(sigs []keys.Signature) {
	n := 0
	for _, s := range sigs {
		n += len(s.Sig)
	}
	buf := make([]byte, 0, n)
	for i, s := range sigs {
		if len(s.Sig) > 0 {
			at := len(buf)
			buf = append(buf, s.Sig...)
			sigs[i].Sig = buf[at:len(buf):len(buf)]
		}
	}
}

// message walks an envelope's body and returns its kind byte, or 0 for a
// payload outside the wire contract. It is the one dispatch of both
// directions: encoding hands it the payload, decoding the value envelopeNew
// made for the kind byte read off the wire.
func (c *codec) message(m any) byte {
	switch m := m.(type) {
	case *LocalMsg:
		c.pbftMsg(&m.M)
		return envLocalMsg
	case *MetaMsg:
		c.pbftMsg(&m.M)
		return envMetaMsg
	case *replication.ChunkBatch:
		c.chunkBatch(m)
		return envChunkBatch
	case *BatchFwd:
		c.chunkBatch(ptr(c, &m.B))
		return envBatchFwd
	case *EntryWAN:
		c.entryMsg(ptr(c, &m.E))
		return envEntryWAN
	case *EntryFwd:
		c.entryMsg(ptr(c, &m.E))
		return envEntryFwd
	case *MetaBatch:
		c.metaBatch(m)
		return envMetaBatch
	case *EntryFetch:
		c.entryID(&m.Entry)
		return envEntryFetch
	case *ChunkRepairReq:
		c.entryID(&m.Entry)
		c.ints(&m.Missing)
		return envChunkRepairReq
	case *StreamFetch:
		c.i32(&m.Origin)
		c.u64(&m.From)
		return envStreamFetch
	case *ProposalFwd:
		c.bytes(&m.Payload)
		return envProposalFwd
	case *RejoinReq:
		c.u64(&m.Have)
		return envRejoinReq
	case *RejoinResp:
		if present(c, &m.C) {
			c.checkpoint(m.C)
		}
		return envRejoinResp
	case *ClientRequest:
		c.u64(&m.Txn.Client)
		c.u64(&m.Txn.Nonce)
		c.bytes(&m.Txn.Payload)
		c.bytes(&m.Txn.Sig)
		return envClientRequest
	case *ClientReply:
		c.u64(&m.Client)
		c.u64(&m.Nonce)
		c.u8(&m.Status)
		c.i32(&m.GID)
		c.u64(&m.Height)
		c.bytes(&m.Result)
		c.receipt(m)
		c.sig(&m.Sig)
		return envClientReply
	case *ReconfigureMsg:
		c.u8(&m.Op)
		c.i32(&m.Group)
		return envReconfigure
	}
	return 0
}

// receipt walks a ClientReply's place in its receipt tree. The path has no
// length of its own on the wire: it is exactly merkle.Depth(leaves) hashes,
// and leaves is bounded, so what decoding allocates is at most 20 hashes
// that are checked to be there.
func (c *codec) receipt(m *ClientReply) {
	c.i32(&m.Leaves)
	c.i32(&m.Index)
	if c.dec && c.err == nil {
		if m.Leaves < 1 || m.Leaves > MaxReceiptLeaves || m.Index >= m.Leaves {
			c.err = errors.New("cluster: receipt leaf count or index out of range")
			return
		}
		depth := merkle.Depth(m.Leaves)
		if depth*merkle.HashSize > len(c.b) {
			c.fail("receipt path")
			return
		}
		if depth > 0 {
			m.Path = make([][merkle.HashSize]byte, depth)
		}
	}
	for i := range m.Path {
		hash(c, &m.Path[i])
	}
}

// pbftMsg walks a sub-kind byte and the pbft message it names.
func (c *codec) pbftMsg(m *pbft.Msg) {
	at := len(c.b)
	var kind byte
	c.u8(&kind)
	if c.dec {
		if int(kind) >= len(pbftNew) || pbftNew[kind] == nil {
			if c.err == nil {
				c.err = errors.New("cluster: unknown pbft message kind")
			}
			return
		}
		*m = pbftNew[kind]()
	}
	switch p := (*m).(type) {
	case *pbft.PrePrepare:
		kind = pbPrePrepare
		c.prePrepare(p)
	case *pbft.Prepare:
		kind = pbPrepare
		c.u64(&p.View)
		c.u64(&p.Slot)
		hash(c, &p.Digest)
		c.sig(&p.Sig)
	case *pbft.Commit:
		kind = pbCommit
		c.u64(&p.View)
		c.u64(&p.Slot)
		hash(c, &p.Digest)
		c.sig(&p.Share)
	case *pbft.ViewChange:
		kind = pbViewChange
		c.u64(&p.NewView)
		for i := range list(c, &p.Prepared, leastPrepared) {
			c.prepared(&p.Prepared[i])
		}
		c.sig(&p.Sig)
	case *pbft.NewView:
		kind = pbNewView
		c.newView(p)
	case *pbft.SlotRequest:
		kind = pbSlotRequest
		c.u64(&p.From)
	case *pbft.SlotReply:
		kind = pbSlotReply
		if present(c, &p.NV) {
			c.newView(p.NV)
		}
		for i := range list(c, &p.Slots, leastSlot) {
			c.committedSlot(&p.Slots[i])
		}
	default:
		c.err = fmt.Errorf("cluster: cannot encode pbft message %T", p)
	}
	if !c.dec {
		c.b[at] = kind
	}
}

func (c *codec) prePrepare(p *pbft.PrePrepare) {
	c.u64(&p.View)
	c.u64(&p.Slot)
	hash(c, &p.Digest)
	c.bytes(&p.Payload)
	c.sig(&p.Sig)
}

func (c *codec) prepared(p *pbft.PreparedInfo) {
	c.u64(&p.Slot)
	hash(c, &p.Digest)
	c.bytes(&p.Payload)
}

func (c *codec) newView(p *pbft.NewView) {
	c.u64(&p.View)
	for i := range list(c, &p.Reproposals, leastPrePrepare) {
		c.prePrepare(ptr(c, &p.Reproposals[i]))
	}
	c.sig(&p.Sig)
}

func (c *codec) committedSlot(s *pbft.CommittedSlot) {
	c.u64(&s.Slot)
	c.bytes(&s.Payload)
	c.cert(&s.Cert)
}

func (c *codec) chunkBatch(m *replication.ChunkBatch) {
	c.entryID(&m.Entry)
	hash(c, &m.Root)
	c.i32(&m.Total)
	c.i32(&m.Data)
	c.i32(&m.DataLen)
	c.ints(&m.Indices)
	c.ints(&m.Proof.Indices)
	for i := range list(c, &m.Proof.Siblings, leastHash) {
		hash(c, &m.Proof.Siblings[i])
	}
	for i := range list(c, &m.Chunks, leastBytes) {
		c.bytes(&m.Chunks[i])
	}
	c.cert(&m.Cert)
}

// entry walks an optional entry, carried as its certified encoding.
func (c *codec) entry(p **types.Entry) {
	has := *p != nil
	c.boolean(&has)
	if !has {
		return
	}
	var enc []byte
	if !c.dec {
		enc = (*p).Encode()
	}
	c.bytes(&enc)
	if c.dec && c.err == nil {
		*p, c.err = types.DecodeEntry(enc)
	}
}

func (c *codec) entryMsg(m *replication.EntryMsg) {
	c.entry(&m.Entry)
	c.cert(&m.Cert)
}

func (c *codec) metaBatch(m *MetaBatch) {
	c.i32(&m.FromGroup)
	c.u64(&m.Seq)
	// Records travel as their canonical certified encoding: the meta
	// certificate binds exactly these bytes.
	var enc []byte
	if !c.dec {
		enc = EncodeRecords(m.Records)
	}
	c.bytes(&enc)
	if c.dec && c.err == nil {
		var ok bool
		if m.Records, ok = DecodeRecords(enc); !ok {
			c.err = errors.New("cluster: malformed record block in MetaBatch")
			return
		}
	}
	c.cert(&m.Cert)
}

// state walks an optional state store, carried as its statedb snapshot.
func (c *codec) state(p **statedb.Store) {
	has := *p != nil
	c.boolean(&has)
	if !has {
		return
	}
	var enc []byte
	if !c.dec {
		var sb bytes.Buffer
		if err := (*p).Save(&sb); err != nil {
			c.err = fmt.Errorf("cluster: encoding checkpoint state: %w", err)
			return
		}
		enc = sb.Bytes()
	}
	c.bytes(&enc)
	if c.dec && c.err == nil {
		st, err := statedb.Load(bytes.NewReader(enc))
		if err != nil {
			c.err = fmt.Errorf("cluster: decoding checkpoint state: %w", err)
			return
		}
		*p = st
	}
}

func (c *codec) checkpoint(ck *Checkpoint) {
	c.u64(&ck.Height)
	for i := range list(c, &ck.Blocks, leastBlock) {
		c.block(ptr(c, &ck.Blocks[i]))
	}
	c.state(&ck.State)
	hash(c, &ck.StateRoll)
	c.u64(&ck.Clk)
	c.u64(&ck.NextSeq)
	c.i64(&ck.ExecCount)
	c.i64(&ck.CommitCount)
	for i := range list(c, &ck.Batches, leastBatch) {
		c.metaBatch(ptr(c, &ck.Batches[i]))
	}
	c.snapshot(&ck.Local)
	c.snapshot(&ck.Meta)
	if present(c, &ck.Ord) {
		c.u64s(&ck.Ord.ExecutedSeq)
		for i := range list(c, &ck.Ord.Entries, leastVTS) {
			c.entryVTS(&ck.Ord.Entries[i])
		}
	}
	c.u64(&ck.Round)
	for i := range list(c, &ck.Skipped, leastEntryID) {
		c.entryID(&ck.Skipped[i])
	}
	for i := range list(c, &ck.Pending, leastPending) {
		c.pending(&ck.Pending[i])
	}
	for i := range list(c, &ck.Groups, leastGroup) {
		c.checkpointGroup(&ck.Groups[i])
	}
	c.u64(&ck.Epoch)
}

func (c *codec) block(b *ledger.Block) {
	c.u64(&b.Height)
	hash(c, &b.Prev)
	c.entryID(&b.Entry)
	hash(c, &b.EntryDigest)
	c.u32(&b.Committed)
	c.u32(&b.Aborted)
	hash(c, &b.StateDigest)
}

func (c *codec) snapshot(s *pbft.Snapshot) {
	c.u64(&s.View)
	c.u64(&s.Slot)
	for i := range list(c, &s.Slots, leastExported) {
		c.exportedSlot(&s.Slots[i])
	}
}

func (c *codec) exportedSlot(s *pbft.ExportedSlot) {
	c.u64(&s.Slot)
	hash(c, &s.Digest)
	c.bytes(&s.Payload)
	for i := range list(c, &s.Prepares, leastNodeID) {
		c.nodeID(&s.Prepares[i])
	}
	for i := range list(c, &s.Commits, leastSig) {
		c.sig(&s.Commits[i])
	}
	c.boolean(&s.Committed)
}

func (c *codec) entryVTS(e *order.EntryVTS) {
	c.entryID(&e.ID)
	c.u64s(&e.VTS)
	for i := range list(c, &e.Set, leastBool) {
		c.boolean(&e.Set[i])
	}
}

func (c *codec) pending(p *PendingEntry) {
	c.entryID(&p.ID)
	c.entry(&p.Entry)
	c.cert(&p.Cert)
	c.i32(&p.StampedBy)
	c.ints(&p.Streams)
	c.ints(&p.Stamps)
	c.boolean(&p.Committed)
	c.boolean(&p.CommitSeen)
}

func (c *codec) checkpointGroup(g *CheckpointGroup) {
	c.u64(&g.Next)
	c.u64(&g.View)
	c.u64(&g.TS)
	c.u64(&g.CommitHi)
	c.u64(&g.Executed)
	state := byte(g.Row.State)
	c.u8(&state)
	if c.dec {
		g.Row.State = GroupState(state)
	}
	c.u64(&g.Row.Cut)
	for i := range list(c, &g.Row.Suspecters, leastSuspicion) {
		c.suspicion(&g.Row.Suspecters[i])
	}
	c.ints(&g.Row.Votes)
}

func (c *codec) suspicion(s *Suspicion) {
	c.i32(&s.Origin)
	c.u64(&s.Cursor)
}
