// Package ledger implements the globally ordered ledger the paper's
// prototype builds on top of MassBFT consensus (§VI "Implementation"): each
// group produces a subchain of blocks (one block per committed entry), and
// the ordered execution stream stitches them into a single hash-chained
// ledger that every correct node reproduces bit-for-bit.
//
// Blocks bind the executed entry's identity, digest, the vector-timestamp
// order position, and the resulting state digest, so two ledgers agree if
// and only if the nodes executed the same entries in the same order with the
// same effects.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"massbft/internal/keys"
	"massbft/internal/types"
)

// BlockHash identifies a block (and transitively its entire prefix).
type BlockHash [sha256.Size]byte

// String returns a short hex prefix.
func (h BlockHash) String() string { return fmt.Sprintf("%x", h[:6]) }

// Block is one element of the global ledger.
type Block struct {
	// Height is the block's position (genesis = 0 is implicit; the first
	// appended block has height 1).
	Height uint64
	// Prev chains the ledger.
	Prev BlockHash
	// Entry identifies the consensus entry this block seals.
	Entry types.EntryID
	// EntryDigest is the entry's content digest (from its certificate).
	EntryDigest keys.Digest
	// Committed and Aborted count the entry's transaction outcomes.
	Committed, Aborted uint32
	// StateDigest is the rolling execution digest after the entry: the
	// previous block's StateDigest folded with EntryDigest, Committed and
	// Aborted. It is not a digest of the state store, so it exposes a
	// divergence in what executed and how it ended, not in the stored values.
	StateDigest [32]byte

	hash    BlockHash
	hashSet bool
}

// Hash returns the block's hash over all header fields.
func (b *Block) Hash() BlockHash {
	if b.hashSet {
		return b.hash
	}
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.Height)
	h.Write(buf[:])
	h.Write(b.Prev[:])
	binary.BigEndian.PutUint64(buf[:], uint64(b.Entry.GID))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], b.Entry.Seq)
	h.Write(buf[:])
	h.Write(b.EntryDigest[:])
	binary.BigEndian.PutUint32(buf[:4], b.Committed)
	h.Write(buf[:4])
	binary.BigEndian.PutUint32(buf[:4], b.Aborted)
	h.Write(buf[:4])
	h.Write(b.StateDigest[:])
	h.Sum(b.hash[:0])
	b.hashSet = true
	return b.hash
}

// Ledger is one node's copy of the global chain. It is single-threaded
// (driven by the execution path).
type Ledger struct {
	blocks []*Block
}

// New returns an empty ledger (head = genesis, the zero hash).
func New() *Ledger { return &Ledger{} }

// Height returns the number of appended blocks.
func (l *Ledger) Height() uint64 { return uint64(len(l.blocks)) }

// Head returns the hash of the latest block (zero for an empty ledger).
func (l *Ledger) Head() BlockHash {
	if len(l.blocks) == 0 {
		return BlockHash{}
	}
	return l.blocks[len(l.blocks)-1].Hash()
}

// Append seals one executed entry into the chain and returns the new block.
func (l *Ledger) Append(entry types.EntryID, entryDigest keys.Digest, committed, aborted int, stateDigest [32]byte) *Block {
	b := &Block{
		Height:      l.Height() + 1,
		Prev:        l.Head(),
		Entry:       entry,
		EntryDigest: entryDigest,
		Committed:   uint32(committed),
		Aborted:     uint32(aborted),
		StateDigest: stateDigest,
	}
	l.blocks = append(l.blocks, b)
	return b
}

// AppendBlock appends an externally produced block (state transfer), after
// validating that it chains onto the current head.
func (l *Ledger) AppendBlock(b *Block) error {
	if b.Height != l.Height()+1 {
		return ErrBadHeight
	}
	if b.Prev != l.Head() {
		return ErrBrokenChain
	}
	l.blocks = append(l.blocks, b)
	return nil
}

// Suffix returns the blocks above 1-based height from (i.e. heights from+1
// onward). Blocks are immutable once appended, so sharing pointers is safe.
func (l *Ledger) Suffix(from uint64) []*Block {
	if from >= l.Height() {
		return nil
	}
	return append([]*Block(nil), l.blocks[from:]...)
}

// Block returns the block at 1-based height, or nil.
func (l *Ledger) Block(height uint64) *Block {
	if height < 1 || height > l.Height() {
		return nil
	}
	return l.blocks[height-1]
}

// Errors returned by Verify.
var (
	ErrBrokenChain  = errors.New("ledger: prev hash does not match")
	ErrBadHeight    = errors.New("ledger: non-contiguous heights")
	ErrSeqRegressed = errors.New("ledger: per-group entry sequence regressed")
)

// Verify checks chain integrity: contiguous heights, prev-hash links, and
// Lemma V.5 monotonicity (a group's entries appear in increasing sequence
// order).
func (l *Ledger) Verify() error {
	prev := BlockHash{}
	lastSeq := make(map[int]uint64)
	for i, b := range l.blocks {
		if b.Height != uint64(i)+1 {
			return fmt.Errorf("%w: block %d has height %d", ErrBadHeight, i+1, b.Height)
		}
		if b.Prev != prev {
			return fmt.Errorf("%w at height %d", ErrBrokenChain, b.Height)
		}
		if b.Entry.Seq <= lastSeq[b.Entry.GID] {
			return fmt.Errorf("%w: group %d seq %d after %d (height %d)",
				ErrSeqRegressed, b.Entry.GID, b.Entry.Seq, lastSeq[b.Entry.GID], b.Height)
		}
		lastSeq[b.Entry.GID] = b.Entry.Seq
		prev = b.Hash()
	}
	return nil
}
