package gateway

import (
	"encoding/binary"

	"massbft/internal/merkle"
)

// An execution receipt is a node's signed answer to every client of one
// executed entry at once. The entry's client transactions, in entry order,
// are the leaves of a Merkle tree (leaf = client‖nonce); the node signs
// keys.ReceiptMessage(status, group, height, result, root, leaf count) once
// and sends each client that signature with the client's own leaf index and
// sibling path. All ~200 transactions of an entry share (group, height,
// result), so the signature per reply this replaces bought nothing the path
// does not: the client recomputes the root from its own (client, nonce) — a
// path to anyone else's leaf yields a root the signature does not cover.
// A dedup-window answer is the same thing over a one-leaf tree.

// leafSize is the width of one receipt leaf: client‖nonce, big-endian.
const leafSize = 16

func appendLeaf(dst []byte, client, nonce uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, client), nonce)
}

// Addressee is one client transaction a receipt is sent for: Index is its
// leaf in the receipt's tree.
type Addressee struct {
	Client, Nonce uint64
	Index         int
}

// Receipt is what a node signs once and answers many clients with.
type Receipt struct {
	Status byte // StatusOK, or StatusDup for a dedup-window answer
	Height uint64
	Result []byte
	// Tree commits to every client transaction of the entry, so the root is
	// a function of the entry alone; To lists the ones to answer (a
	// transaction this node had already executed is not answered again).
	Tree *merkle.Tree
	To   []Addressee
}

// receiptScratch holds the buffers one gateway reuses from receipt to
// receipt (a gateway builds one at a time, on its event loop).
type receiptScratch struct {
	leaves []byte // leafSize bytes per leaf
	hdrs   [][]byte
	to     []Addressee
}

func (s *receiptScratch) begin() {
	s.leaves, s.to = s.leaves[:0], s.to[:0]
}

// add appends the next leaf; answer marks it as an addressee.
func (s *receiptScratch) add(client, nonce uint64, answer bool) {
	if answer {
		s.to = append(s.to, Addressee{Client: client, Nonce: nonce, Index: len(s.leaves) / leafSize})
	}
	s.leaves = appendLeaf(s.leaves, client, nonce)
}

// receipt builds the tree over the leaves added since begin.
func (s *receiptScratch) receipt(status byte, height uint64, result []byte) *Receipt {
	s.hdrs = s.hdrs[:0]
	for at := 0; at < len(s.leaves); at += leafSize {
		s.hdrs = append(s.hdrs, s.leaves[at:at+leafSize:at+leafSize])
	}
	tree, err := merkle.NewTree(s.hdrs)
	if err != nil {
		panic(err) // no leaves: callers build a receipt only for an addressee
	}
	return &Receipt{Status: status, Height: height, Result: result, Tree: tree, To: s.to}
}
