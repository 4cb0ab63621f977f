// Package merkle implements the Merkle tree and Merkle proofs used by
// MassBFT's optimistic entry rebuild (§IV-C). Each leaf is the SHA-256 hash
// of one erasure-coded chunk; the root commits to the whole chunk set, and a
// proof shows that a specific chunk at a specific index belongs to a root.
//
// Leaf and interior hashes are domain-separated (prefix bytes 0x00/0x01) so a
// proof for an interior node can never be replayed as a leaf, and the leaf
// hash binds the chunk index so chunks cannot be reordered without changing
// the root.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashSize is the size of node hashes in bytes.
const HashSize = sha256.Size

// Root identifies a Merkle tree; equal roots mean (with cryptographic
// certainty) equal leaf sets.
type Root [HashSize]byte

// String returns a short hex prefix for logging.
func (r Root) String() string { return fmt.Sprintf("%x", r[:6]) }

const (
	leafPrefix     = 0x00
	interiorPrefix = 0x01
)

// LeafHash returns the domain-separated hash of leaf data at the given index.
func LeafHash(index int, data []byte) [HashSize]byte {
	h := sha256.New()
	var pre [9]byte
	pre[0] = leafPrefix
	binary.BigEndian.PutUint64(pre[1:], uint64(index))
	h.Write(pre[:])
	h.Write(data)
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

func interiorHash(left, right [HashSize]byte) [HashSize]byte {
	h := sha256.New()
	h.Write([]byte{interiorPrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// Tree is a Merkle tree over an ordered list of leaves. The tree is computed
// once at construction and is immutable afterwards.
type Tree struct {
	leafCount int
	// levels[0] is the leaf level; levels[len-1] has exactly one node.
	levels [][][HashSize]byte
}

// NewTree builds a tree over the given leaves (each leaf is the raw chunk
// bytes; hashing is done internally). NewTree returns an error when leaves is
// empty. Odd nodes at each level are promoted by duplicating the last hash,
// which is safe here because leaf hashes bind their index.
func NewTree(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("merkle: no leaves")
	}
	level := make([][HashSize]byte, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(i, l)
	}
	t := &Tree{leafCount: len(leaves)}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([][HashSize]byte, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next[i/2] = interiorHash(level[i], level[i+1])
			} else {
				next[i/2] = interiorHash(level[i], level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree's root.
func (t *Tree) Root() Root { return Root(t.levels[len(t.levels)-1][0]) }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return t.leafCount }

// Proof is a Merkle inclusion proof: the sibling hashes on the path from a
// leaf to the root, plus the leaf's index (which also encodes left/right
// turns).
type Proof struct {
	Index    int
	Siblings [][HashSize]byte
}

// Prove returns the inclusion proof for the leaf at index.
func (t *Tree) Prove(index int) (Proof, error) {
	if index < 0 || index >= t.leafCount {
		return Proof{}, fmt.Errorf("merkle: index %d out of range [0,%d)", index, t.leafCount)
	}
	p := Proof{Index: index, Siblings: make([][HashSize]byte, 0, len(t.levels)-1)}
	i := index
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		nodes := t.levels[lvl]
		sib := i ^ 1
		if sib >= len(nodes) {
			sib = i // odd promotion duplicates the node
		}
		p.Siblings = append(p.Siblings, nodes[sib])
		i /= 2
	}
	return p, nil
}

// Verify checks that data is the leaf at proof.Index under root, for a tree
// with leafCount leaves. The leafCount must be supplied (MassBFT receivers
// know n_total from the transfer plan) so the verifier can reject proofs of
// the wrong depth.
func Verify(root Root, leafCount int, proof Proof, data []byte) bool {
	got, ok := ProofRoot(leafCount, proof, data)
	return ok && got == root
}

// ProofRoot returns the root that proof commits data to, as the leaf at
// proof.Index of a tree with leafCount leaves: Verify for a caller who holds
// no root of its own but a signature over one (the gateway's execution
// receipts). ok is false when the proof cannot belong to such a tree — index
// out of range, wrong depth, or an odd-promotion sibling that is not the
// node's own hash.
func ProofRoot(leafCount int, proof Proof, data []byte) (root Root, ok bool) {
	if proof.Index < 0 || proof.Index >= leafCount || leafCount <= 0 {
		return Root{}, false
	}
	if len(proof.Siblings) != Depth(leafCount) {
		return Root{}, false
	}
	h := LeafHash(proof.Index, data)
	i := proof.Index
	width := leafCount
	for _, sib := range proof.Siblings {
		if i%2 == 0 {
			// We are a left child unless we were the duplicated odd node.
			if i+1 >= width {
				// Odd promotion: sibling must equal our own hash.
				if sib != h {
					return Root{}, false
				}
				h = interiorHash(h, h)
			} else {
				h = interiorHash(h, sib)
			}
		} else {
			h = interiorHash(sib, h)
		}
		i /= 2
		width = (width + 1) / 2
	}
	return Root(h), true
}

// Depth returns the number of siblings in a proof for a tree of leafCount
// leaves.
func Depth(leafCount int) int {
	d := 0
	for w := leafCount; w > 1; w = (w + 1) / 2 {
		d++
	}
	return d
}

// ProofSize returns the serialized size in bytes of a proof for a tree of
// leafCount leaves; used by the traffic accounting in the bench harness.
func ProofSize(leafCount int) int {
	return 8 + Depth(leafCount)*HashSize
}
