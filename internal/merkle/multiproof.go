package merkle

import (
	"errors"
	"fmt"
	"slices"
)

// MultiProof proves the inclusion of several leaves under one root with a
// single, deduplicated set of sibling hashes — the "compact Merkle
// multiproof" the paper cites ([42], Ramabaja & Avdullahu) for chunk
// batches sent to the same receiver. For k leaves of an n-leaf tree it
// stores only the hashes not derivable from the leaves themselves, which is
// strictly fewer bytes than k independent proofs whenever k > 1.
type MultiProof struct {
	// Indices are the proven leaf positions, strictly increasing.
	Indices []int
	// Siblings are the non-derivable node hashes in deterministic
	// (level-major, left-to-right) order, exactly as VerifyMulti consumes
	// them.
	Siblings [][HashSize]byte
}

// WireSize returns the serialized size in bytes.
func (p *MultiProof) WireSize() int {
	return 4 + 8*len(p.Indices) + len(p.Siblings)*HashSize
}

// ProveMulti builds a compact proof for the given leaf indices (duplicates
// are ignored; order does not matter).
func (t *Tree) ProveMulti(indices []int) (MultiProof, error) {
	if len(indices) == 0 {
		return MultiProof{}, errors.New("merkle: no indices")
	}
	for _, i := range indices {
		if i < 0 || i >= t.leafCount {
			return MultiProof{}, fmt.Errorf("merkle: index %d out of range [0,%d)", i, t.leafCount)
		}
	}
	sorted := slices.Clone(indices)
	slices.Sort(sorted)
	proof := MultiProof{Indices: slices.Compact(sorted)}
	// Walk level by level over the known positions, ascending: a node whose
	// sibling is not known needs that sibling's hash, emitted in walk order,
	// and each known node's parent is known at the next level.
	pos := slices.Clone(proof.Indices)
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		width := len(t.levels[lvl])
		next := 0
		for k := 0; k < len(pos); k++ {
			p := pos[k]
			switch {
			case p^1 >= width: // odd promotion duplicates the node
			case p%2 == 0 && k+1 < len(pos) && pos[k+1] == p+1:
				k++ // both children known
			default:
				proof.Siblings = append(proof.Siblings, t.levels[lvl][p^1])
			}
			pos[next] = p / 2
			next++
		}
		pos = pos[:next]
	}
	return proof, nil
}

// node is a tree node VerifyMulti has derived: its position in its level
// and its hash.
type node struct {
	pos  int
	hash [HashSize]byte
}

// VerifyMulti checks that the given leaves (parallel to proof.Indices) hash
// up to root for a tree of leafCount leaves. It walks the levels the way
// ProveMulti does, over one slice it rewrites in place: one allocation.
func VerifyMulti(root Root, leafCount int, proof MultiProof, leaves [][]byte) bool {
	if len(proof.Indices) == 0 || len(leaves) != len(proof.Indices) || leafCount <= 0 {
		return false
	}
	// Indices must be strictly increasing and in range.
	for k, i := range proof.Indices {
		if i < 0 || i >= leafCount {
			return false
		}
		if k > 0 && proof.Indices[k-1] >= i {
			return false
		}
	}
	level := make([]node, len(leaves))
	for k, i := range proof.Indices {
		level[k] = node{i, LeafHash(i, leaves[k])}
	}
	sibs := proof.Siblings
	for width := leafCount; width > 1; width = (width + 1) / 2 {
		next := 0
		for k := 0; k < len(level); k++ {
			p, h := level[k].pos, level[k].hash
			var parent [HashSize]byte
			switch {
			case p^1 >= width: // odd promotion
				parent = interiorHash(h, h)
			case p%2 == 0 && k+1 < len(level) && level[k+1].pos == p+1:
				parent = interiorHash(h, level[k+1].hash)
				k++
			case len(sibs) == 0:
				return false
			case p%2 == 0:
				parent, sibs = interiorHash(h, sibs[0]), sibs[1:]
			default:
				parent, sibs = interiorHash(sibs[0], h), sibs[1:]
			}
			// next <= k: the write never reaches a node not yet read.
			level[next] = node{p / 2, parent}
			next++
		}
		level = level[:next]
	}
	// Trailing, unconsumed hashes are malformed.
	return len(sibs) == 0 && Root(level[0].hash) == root
}
