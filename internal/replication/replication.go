// Package replication implements MassBFT's encoded bijective log replication
// (§IV-B) and the optimistic entry rebuild (§IV-C).
//
// Sender side: after local PBFT consensus every correct node of the sender
// group holds the entry. Each node deterministically erasure-codes the
// entry's canonical encoding into n_total chunks per Algorithm 1 (package
// plan), builds a Merkle tree over the chunks, and transmits only its
// assigned chunks — one ChunkBatch per assigned peer in the receiver group,
// carrying that peer's chunks, one Merkle multiproof for them and the entry's
// PBFT certificate.
//
// Receiver side: a Collector groups arriving chunks into buckets keyed by
// (Merkle root, claimed data length) — chunks whose proof does not verify
// against their claimed root are discarded outright, and chunks that agree on
// a root but disagree on the pre-padding length cannot decode together, so
// they bucket separately. When a bucket reaches n_data chunks the collector
// optimistically rebuilds the entry. The rebuilt bytes are validated against
// a quorum certificate drawn from the candidates observed on the bucket's
// chunks: a single Byzantine sender attaching a mangled certificate must not
// taint the honest chunks it travelled with, so validation retries every
// candidate before giving up. Buckets whose *data* is bad (decode failure or
// wrong entry) are banned wholesale (DoS protection); a bucket whose data is
// sound but lacks a valid certificate merely waits for one to arrive. Each
// entry is delivered exactly once.
package replication

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"

	"massbft/internal/erasure"
	"massbft/internal/keys"
	"massbft/internal/merkle"
	"massbft/internal/plan"
	"massbft/internal/types"
)

// ChunkBatch is the one form a chunk travels in, over WAN from a sender-group
// node and re-broadcast over LAN inside the receiver group: every chunk one
// sender ships to one receiver for one entry, authenticated by a single
// compact Merkle multiproof ([42]). A batch of one index is the single-chunk
// case, its multiproof the plain sibling path.
type ChunkBatch struct {
	// Entry identifies the entry the chunks belong to.
	Entry types.EntryID
	// Root is the Merkle root committing to the full chunk set; with DataLen
	// it is the bucket key at receivers.
	Root merkle.Root
	// Total and Data are the plan's n_total and n_data; receivers derive
	// them independently but carry them for validation.
	Total, Data int
	// DataLen is the byte length of the encoded entry before padding.
	DataLen int
	// Indices are the chunk IDs in the transfer plan, strictly increasing and
	// equal to Proof.Indices; Chunks is parallel.
	Indices []int
	Proof   merkle.MultiProof
	Chunks  [][]byte
	// Cert is the entry's local-PBFT certificate, used to validate the
	// rebuilt entry.
	Cert *keys.Certificate
}

// WireSize returns the serialized size in bytes.
func (b *ChunkBatch) WireSize() int {
	n := 12 + merkle.HashSize + 4 + 4 + 4
	n += b.Proof.WireSize()
	for _, c := range b.Chunks {
		n += 4 + 4 + len(c)
	}
	if b.Cert != nil {
		n += b.Cert.Size()
	}
	return n
}

// Encoded is a fully encoded entry ready for transmission: the shards and
// the Merkle tree over them. Every correct node of the sender group derives
// an identical Encoded for the same entry.
type Encoded struct {
	Plan    *plan.Plan
	Shards  [][]byte
	Tree    *merkle.Tree
	DataLen int
}

// Encode erasure-codes entryEnc (the entry's canonical encoding) according to
// the transfer plan p.
func Encode(entryEnc []byte, p *plan.Plan) (*Encoded, error) {
	if p.Total > erasure.MaxShards {
		return nil, fmt.Errorf("replication: plan needs %d shards, max %d", p.Total, erasure.MaxShards)
	}
	enc, err := erasure.Cached(p.Data, p.Parity)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	shards, err := enc.Split(entryEnc)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	tree, err := merkle.NewTree(shards)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	return &Encoded{Plan: p, Shards: shards, Tree: tree, DataLen: len(entryEnc)}, nil
}

// Batches builds the per-receiver ChunkBatch messages sender node i must
// transmit; the second return value holds the receiver index of each batch.
func (e *Encoded) Batches(senderIndex int, id types.EntryID, cert *keys.Certificate) ([]ChunkBatch, []int, error) {
	transfers := e.Plan.SenderTransfers(senderIndex)
	if transfers == nil {
		return nil, nil, fmt.Errorf("replication: sender index %d out of range", senderIndex)
	}
	byReceiver := make(map[int][]int)
	order := make([]int, 0, 4)
	for _, tr := range transfers {
		if _, ok := byReceiver[tr.Receiver]; !ok {
			order = append(order, tr.Receiver)
		}
		byReceiver[tr.Receiver] = append(byReceiver[tr.Receiver], tr.Chunk)
	}
	batches := make([]ChunkBatch, 0, len(order))
	receivers := make([]int, 0, len(order))
	for _, recv := range order {
		b, err := e.Batch(byReceiver[recv], id, cert)
		if err != nil {
			return nil, nil, err
		}
		batches = append(batches, b)
		receivers = append(receivers, recv)
	}
	return batches, receivers, nil
}

// Batch is the ChunkBatch carrying chunks idx (in any order) of the encoding
// under one multiproof: what Batches cuts per receiver, and what answers a
// repair request for exactly the chunks a receiver lacks.
func (e *Encoded) Batch(idx []int, id types.EntryID, cert *keys.Certificate) (ChunkBatch, error) {
	proof, err := e.Tree.ProveMulti(idx)
	if err != nil {
		return ChunkBatch{}, err
	}
	chunks := make([][]byte, len(proof.Indices))
	for k, c := range proof.Indices {
		chunks[k] = e.Shards[c]
	}
	return ChunkBatch{
		Entry:   id,
		Root:    e.Tree.Root(),
		Total:   e.Plan.Total,
		Data:    e.Plan.Data,
		DataLen: e.DataLen,
		Indices: proof.Indices,
		Proof:   proof,
		Chunks:  chunks,
		Cert:    cert,
	}, nil
}

// Rebuilt is a successfully rebuilt and certificate-validated entry. Enc is
// the encoding it was decoded from, whose digest Cert certifies.
type Rebuilt struct {
	Entry *types.Entry
	Enc   []byte
	Cert  *keys.Certificate
}

// Collector errors (returned from AddBatch for observability; callers
// typically just drop the batch).
var (
	ErrBadProof      = errors.New("replication: chunk Merkle proof invalid")
	ErrBannedChunk   = errors.New("replication: chunk ID banned after failed rebuild")
	ErrDuplicate     = errors.New("replication: duplicate chunk")
	ErrDelivered     = errors.New("replication: entry already delivered")
	ErrBadGeometry   = errors.New("replication: chunk geometry does not match plan")
	ErrMissingCert   = errors.New("replication: chunk carries no certificate")
	ErrWrongPlanSize = errors.New("replication: message Total/Data disagree with local plan")
)

// bucketKey identifies a rebuild bucket. Chunks can only decode together
// when they agree on both the Merkle root and the claimed pre-padding data
// length: keying on the pair stops a Byzantine sender from poisoning an
// honest root's bucket with a wrong DataLen (under a root-only key the first
// writer's DataLen won, so a lying first chunk made the eventual Join
// produce garbage and the honest chunks were banned for it).
type bucketKey struct {
	root    merkle.Root
	dataLen int
}

// outcome is one RebuildMemo value: a bucket's decode verdict. The
// collectors sharing it neither re-decode, re-encode nor re-hash the entry.
// Certificate validity for delivery is still checked per collector against
// its own candidate set (cheap: package keys memoizes certificate
// verification).
type outcome struct {
	entry *types.Entry // nil when the chunks did not decode to a valid entry
	// enc is the Join output entry was decoded from (entry aliases it), and
	// digest its keys.Hash — the entry's digest, the encoding being canonical.
	enc    []byte
	digest keys.Digest
}

// Collector reassembles entries from chunks at one receiver-group node.
// It is single-threaded (driven by the simulation event loop).
type Collector struct {
	registry *keys.Registry
	// expected plan geometry per sender group: the receiver derives the plan
	// from the two group sizes, so a Byzantine sender cannot lie about
	// Total/Data.
	planFor func(senderGroup int) *plan.Plan
	// onRebuilt receives each entry exactly once.
	onRebuilt func(senderGroup int, r Rebuilt)
	// onFailure, when set, is notified with the chunk IDs of a bucket that
	// failed validation, letting the node blacklist their senders (§VI-E).
	onFailure func(id types.EntryID, chunkIDs []int)
	// onMetric, when set, receives named counter increments (kebab-case, the
	// hosting node's metrics convention) for events worth surfacing outside
	// the Stats accessors, e.g. certificate-validation retries.
	onMetric func(name string)
	// memo, when set, shares rebuild outcomes across nodes.
	memo *RebuildMemo

	entries map[types.EntryID]*entryState

	// Stats
	rebuilds, failedRebuilds, rejectedChunks, certRetries int
}

// SetMemo installs a shared rebuild memo (see RebuildMemo).
func (c *Collector) SetMemo(m *RebuildMemo) { c.memo = m }

// SetOnFailure installs the failed-rebuild notification callback.
func (c *Collector) SetOnFailure(fn func(id types.EntryID, chunkIDs []int)) { c.onFailure = fn }

// SetMetricsHook installs the named-counter callback (see onMetric).
func (c *Collector) SetMetricsHook(fn func(name string)) { c.onMetric = fn }

func (c *Collector) metric(name string) {
	if c.onMetric != nil {
		c.onMetric(name)
	}
}

// maxCandidateCerts bounds the distinct certificates remembered per bucket.
// One honest certificate exists per entry, so the bound only limits how many
// mangled variants a Byzantine sender can make us store.
const maxCandidateCerts = 8

type entryState struct {
	delivered bool
	banned    map[int]bool
	buckets   map[bucketKey]map[int][]byte
	// certs holds the candidate certificates observed on each bucket's
	// chunks, deduplicated, in arrival order. Rebuild validation tries them
	// all: the certificate that travelled with the triggering chunk may be
	// mangled while an earlier sender's copy is honest.
	certs map[bucketKey][]*keys.Certificate
	// pending caches a bucket's successfully decoded entry while no candidate
	// certificate validates yet, so retries triggered by later certificate
	// arrivals skip the decode.
	pending map[bucketKey]*outcome
}

func newEntryState() *entryState {
	return &entryState{
		banned:  make(map[int]bool),
		buckets: make(map[bucketKey]map[int][]byte),
		certs:   make(map[bucketKey][]*keys.Certificate),
		pending: make(map[bucketKey]*outcome),
	}
}

// certEqual compares certificates by content.
func certEqual(a, b *keys.Certificate) bool {
	if a == b {
		return true
	}
	if a.Group != b.Group || a.Digest != b.Digest || len(a.Sigs) != len(b.Sigs) {
		return false
	}
	for i := range a.Sigs {
		if a.Sigs[i].Signer != b.Sigs[i].Signer || !bytes.Equal(a.Sigs[i].Sig, b.Sigs[i].Sig) {
			return false
		}
	}
	return true
}

// addCandidateCert records cert as a validation candidate for the bucket,
// returning whether it was new.
func (st *entryState) addCandidateCert(bk bucketKey, cert *keys.Certificate) bool {
	list := st.certs[bk]
	for _, have := range list {
		if certEqual(have, cert) {
			return false
		}
	}
	if len(list) >= maxCandidateCerts {
		return false
	}
	st.certs[bk] = append(list, cert)
	return true
}

// NewCollector creates a collector. planFor must return the Algorithm-1 plan
// for entries arriving from the given sender group; onRebuilt is invoked
// exactly once per entry that rebuilds and validates.
func NewCollector(reg *keys.Registry, planFor func(senderGroup int) *plan.Plan, onRebuilt func(senderGroup int, r Rebuilt)) *Collector {
	return &Collector{
		registry:  reg,
		planFor:   planFor,
		onRebuilt: onRebuilt,
		entries:   make(map[types.EntryID]*entryState),
	}
}

// AddBatch ingests a chunk batch: one multiproof verification covers all
// chunks, then each chunk joins its bucket. It returns (forward, err): forward
// is true when the batch was valid and brought a fresh chunk, meaning a node
// that received it over WAN should re-broadcast it to its LAN peers (§IV-B
// "exchange their received chunks"). A batch that brought nothing is
// ErrBannedChunk when every index is banned, ErrDuplicate otherwise.
func (c *Collector) AddBatch(b *ChunkBatch) (bool, error) {
	p := c.planFor(b.Entry.GID)
	if p == nil {
		c.rejectedChunks += len(b.Indices)
		return false, ErrBadGeometry
	}
	if b.Total != p.Total || b.Data != p.Data {
		c.rejectedChunks += len(b.Indices)
		return false, ErrWrongPlanSize
	}
	if b.Cert == nil {
		c.rejectedChunks += len(b.Indices)
		return false, ErrMissingCert
	}
	if len(b.Indices) == 0 || len(b.Indices) != len(b.Chunks) {
		c.rejectedChunks++
		return false, ErrBadGeometry
	}
	for _, idx := range b.Indices {
		if idx < 0 || idx >= p.Total {
			c.rejectedChunks += len(b.Indices)
			return false, ErrBadGeometry
		}
	}
	st := c.entries[b.Entry]
	if st == nil {
		st = newEntryState()
		c.entries[b.Entry] = st
	}
	if st.delivered {
		return false, ErrDelivered
	}
	// The chunks must prove membership under the claimed root at the very
	// indices they will be bucketed under; garbage that does not even verify
	// against its own root is dropped immediately.
	if !slices.Equal(b.Indices, b.Proof.Indices) || !merkle.VerifyMulti(b.Root, b.Total, b.Proof, b.Chunks) {
		c.rejectedChunks += len(b.Indices)
		return false, ErrBadProof
	}
	bk := bucketKey{root: b.Root, dataLen: b.DataLen}
	bucket := st.buckets[bk]
	if bucket == nil {
		bucket = make(map[int][]byte)
		st.buckets[bk] = bucket
	}
	newCert := st.addCandidateCert(bk, b.Cert)
	fresh, banned := false, 0
	for k, idx := range b.Indices {
		if st.banned[idx] {
			c.rejectedChunks++
			banned++
			continue
		}
		if _, dup := bucket[idx]; dup {
			continue
		}
		bucket[idx] = b.Chunks[k]
		fresh = true
	}
	if (fresh || newCert) && len(bucket) >= p.Data && !st.delivered {
		c.tryRebuild(b.Entry, st, bk, p, b.Cert)
	}
	switch {
	case fresh:
		return true, nil
	case banned == len(b.Indices):
		return false, ErrBannedChunk
	default:
		return false, ErrDuplicate
	}
}

// tryRebuild attempts to decode the bucket and deliver the entry. The decode
// verdict depends only on the chunk bytes, so a bad decode bans the bucket.
// Certificate validation is separate: it tries every candidate certificate
// observed on the bucket's chunks, and when none validates the bucket is kept
// — the data is proven sound, only the quorum proof is still missing, and a
// later chunk (or a duplicate from an honest sender) can supply it.
func (c *Collector) tryRebuild(id types.EntryID, st *entryState, bk bucketKey, p *plan.Plan, trigger *keys.Certificate) {
	bucket := st.buckets[bk]
	out := st.pending[bk]
	if out == nil && c.memo != nil {
		var hit bool
		if out, hit = c.memo.Get(bk); !hit {
			c.metric("rebuild-memo-misses")
		} else if out.entry == nil || out.entry.ID != id {
			c.banBucketNotify(id, st, bk)
			return
		}
	}
	if out == nil {
		enc, err := erasure.Cached(p.Data, p.Parity)
		if err != nil {
			return
		}
		shards := make([][]byte, p.Total)
		for idx, chunk := range bucket {
			shards[idx] = chunk
		}
		// Only the data shards are needed to join the entry; skip the parity
		// recompute the full Reconstruct would do.
		if err := enc.ReconstructData(shards); err != nil {
			c.rebuildFailed(id, st, bk)
			return
		}
		entryEnc, err := enc.Join(shards, bk.dataLen)
		if err != nil {
			c.rebuildFailed(id, st, bk)
			return
		}
		entry, err := types.DecodeEntry(entryEnc)
		if err != nil || entry.ID != id {
			c.rebuildFailed(id, st, bk)
			return
		}
		out = &outcome{entry: entry, enc: entryEnc, digest: keys.Hash(entryEnc)}
	}
	// The rebuilt entry must be covered by a quorum certificate from the
	// sender group: 2f+1 valid signatures over its digest.
	cert, digestMatched := c.pickValidCert(id, st, bk, out.digest, trigger)
	if cert == nil {
		if !digestMatched {
			// No candidate certificate even claims a quorum over these
			// bytes: the bucket is fabricated content replaying some other
			// entry's certificate. Ban it (§VI-E).
			c.rebuildFailed(id, st, bk)
			return
		}
		// Some sender claims a quorum over exactly this content but its
		// signatures do not check out — consistent with honest chunks whose
		// certificate copy was mangled in transit or by a Byzantine sender.
		// Keep the decoded entry and wait for a clean certificate copy.
		st.pending[bk] = out
		return
	}
	if c.memo != nil {
		c.memo.Put(bk, out)
	}
	st.delivered = true
	st.buckets, st.certs, st.pending = nil, nil, nil // free chunk memory
	c.rebuilds++
	c.onRebuilt(id.GID, Rebuilt{Entry: out.entry, Enc: out.enc, Cert: cert})
}

// pickValidCert returns the first certificate that proves the rebuilt entry
// (digest d), plus whether any candidate at least claimed that digest. The
// triggering chunk's certificate is tried first (it is what the pre-overhaul
// path validated exclusively); attempts beyond it fall back to the other
// candidates observed on the bucket and are counted as cert retries.
func (c *Collector) pickValidCert(id types.EntryID, st *entryState, bk bucketKey, d keys.Digest, trigger *keys.Certificate) (*keys.Certificate, bool) {
	attempts := 0
	try := func(cert *keys.Certificate) bool {
		if cert.Group != id.GID || cert.Digest != d {
			return false
		}
		attempts++
		if attempts > 1 {
			c.certRetries++
			c.metric("cert-retries")
		}
		return c.registry.VerifyCertificate(cert) == nil
	}
	if trigger != nil && try(trigger) {
		return trigger, true
	}
	for _, cert := range st.certs[bk] {
		if trigger != nil && certEqual(cert, trigger) {
			continue
		}
		if try(cert) {
			return cert, true
		}
	}
	return nil, attempts > 0
}

// rebuildFailed records a bad-decode outcome in the memo and bans the bucket.
func (c *Collector) rebuildFailed(id types.EntryID, st *entryState, bk bucketKey) {
	if c.memo != nil {
		c.memo.Put(bk, &outcome{})
	}
	c.banBucketNotify(id, st, bk)
}

// banBucketNotify bans the bucket and fires the failure callback.
func (c *Collector) banBucketNotify(id types.EntryID, st *entryState, bk bucketKey) {
	if c.onFailure != nil {
		bucket := st.buckets[bk]
		ids := make([]int, 0, len(bucket))
		for idx := range bucket {
			ids = append(ids, idx)
		}
		c.onFailure(id, ids)
	}
	c.banBucket(st, bk)
}

// banBucket logs the chunk IDs of a bucket whose data failed validation: all
// its chunks share a Merkle root, so they are all fake. Future chunks with
// these IDs are refused, preventing DoS by repeated fake-bucket fills (§IV-C).
func (c *Collector) banBucket(st *entryState, bk bucketKey) {
	c.failedRebuilds++
	for idx := range st.buckets[bk] {
		st.banned[idx] = true
	}
	// Remove banned chunks from every other bucket too; they can no longer
	// participate in a rebuild.
	for key, b := range st.buckets {
		for idx := range b {
			if st.banned[idx] {
				delete(b, idx)
			}
		}
		if len(b) == 0 {
			delete(st.buckets, key)
			delete(st.certs, key)
			delete(st.pending, key)
		}
	}
}

// Missing reports what a stalled entry still needs: the Merkle root of the
// most promising bucket (the largest one; ties broken by smallest root bytes
// so every replica computes the same answer) and the sorted chunk IDs that
// bucket lacks, excluding banned IDs. When no chunk has arrived yet the root
// is zero and every non-banned chunk ID is missing. ok is false when the
// entry is already delivered or the sender group is unknown — nothing to
// repair.
func (c *Collector) Missing(id types.EntryID) (root merkle.Root, missing []int, ok bool) {
	p := c.planFor(id.GID)
	if p == nil {
		return root, nil, false
	}
	st := c.entries[id]
	if st != nil && st.delivered {
		return root, nil, false
	}
	var bucket map[int][]byte
	var best bucketKey
	if st != nil {
		for bk, b := range st.buckets {
			if bucket == nil || len(b) > len(bucket) ||
				(len(b) == len(bucket) && lessBucketKey(bk, best)) {
				best, bucket = bk, b
			}
		}
		root = best.root
	}
	for idx := 0; idx < p.Total; idx++ {
		if st != nil && st.banned[idx] {
			continue
		}
		if _, have := bucket[idx]; have {
			continue
		}
		missing = append(missing, idx)
	}
	return root, missing, true
}

// lessRoot orders Merkle roots lexicographically (deterministic tie-break).
func lessRoot(a, b merkle.Root) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// lessBucketKey orders bucket keys by root, then claimed data length, so
// every replica picks the same bucket among equals.
func lessBucketKey(a, b bucketKey) bool {
	if a.root != b.root {
		return lessRoot(a.root, b.root)
	}
	return a.dataLen < b.dataLen
}

// Delivered reports whether the entry has already been rebuilt and delivered.
func (c *Collector) Delivered(id types.EntryID) bool {
	st := c.entries[id]
	return st != nil && st.delivered
}

// Forget drops all state for an entry (called after execution).
func (c *Collector) Forget(id types.EntryID) { delete(c.entries, id) }

// Len returns how many entries the collector holds state for.
func (c *Collector) Len() int { return len(c.entries) }

// Stats returns (successful rebuilds, failed rebuild attempts, rejected
// chunks) for observability and tests.
func (c *Collector) Stats() (rebuilds, failed, rejected int) {
	return c.rebuilds, c.failedRebuilds, c.rejectedChunks
}

// CertRetries returns how many times rebuild validation had to move past the
// first candidate certificate (i.e. some sender shipped a certificate that
// did not validate for an otherwise sound bucket).
func (c *Collector) CertRetries() int { return c.certRetries }

// --- Plain (non-encoded) replication strategies used by baselines ---

// EntryMsg carries a complete entry copy, used by the plain bijective (BR)
// ablation (§IV-A) and the one-way leader replication of Baseline/GeoBFT.
type EntryMsg struct {
	Entry *types.Entry
	Cert  *keys.Certificate
}

// WireSize returns the serialized size in bytes.
func (m *EntryMsg) WireSize() int {
	n := m.Entry.WireSize()
	if m.Cert != nil {
		n += m.Cert.Size()
	}
	return n
}

// ValidateEntryMsg checks a complete entry copy against its certificate and
// returns the entry's encoding, which the check has to build to hash it: the
// bytes the certificate covers.
func ValidateEntryMsg(reg *keys.Registry, m *EntryMsg) ([]byte, error) {
	if m.Entry == nil || m.Cert == nil {
		return nil, errors.New("replication: incomplete entry message")
	}
	if m.Cert.Group != m.Entry.ID.GID {
		return nil, errors.New("replication: certificate group mismatch")
	}
	enc := m.Entry.Encode()
	if keys.Hash(enc) != m.Cert.Digest {
		return nil, errors.New("replication: entry digest does not match certificate")
	}
	if err := reg.VerifyCertificate(m.Cert); err != nil {
		return nil, err
	}
	return enc, nil
}

// SignatureWire is the wire size of one signature with signer ID, used for
// traffic accounting of accept/commit messages.
const SignatureWire = ed25519.SignatureSize + 8
