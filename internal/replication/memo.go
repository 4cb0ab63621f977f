package replication

import (
	"massbft/internal/fifo"
	"massbft/internal/keys"
	"massbft/internal/types"
)

// EncodeKey names an encoding: the digest of the entry bytes and the group
// sizes the plan derives from.
type EncodeKey struct {
	Digest           keys.Digest
	Sender, Receiver int
}

// EncodeMemo holds the encodings the members of a sender group derive alike
// from the entry they all certified, and that its chunk repairs re-serve.
type EncodeMemo = fifo.Memo[EncodeKey, *Encoded]

// RebuildMemo holds rebuild outcomes by bucket: the root commits to the exact
// chunk set, so every receiver of an origin's entry decodes the same bytes.
// An honest sender seeds it with those bytes as it encodes them (Seed); a
// collector that decodes a bucket itself records the verdict.
type RebuildMemo = fifo.Memo[bucketKey, *outcome]

// NewEncodeMemo returns a process's shared encoding memo holding up to max
// encodings.
func NewEncodeMemo(max int) *EncodeMemo { return fifo.NewMemo[EncodeKey, *Encoded](max) }

// NewRebuildMemo returns a process's shared rebuild memo holding up to max
// outcomes.
func NewRebuildMemo(max int) *RebuildMemo { return fifo.NewMemo[bucketKey, *outcome](max) }

// Seed memoizes, as the rebuild outcome of every bucket under encd's root,
// the entry the sender encoded: enc, the bytes encd was split from, e decoded
// from them (an entry aliasing enc keeps nothing else alive in the memo) and
// their digest d. Those are exactly what decoding any such bucket returns,
// so the receivers skip the decode and share enc. A bucket already seeded or
// decoded keeps its outcome, so the members of a sender group seed once
// between them. Only a sender holding enc as certified content may seed — d
// must be the digest its certificate carries — never a tampered encoding or
// bytes whose digest was not checked; each collector still verifies a
// certificate over d itself. A nil memo, a process whose one collector has
// none to share with, takes no seed.
func Seed(m *RebuildMemo, encd *Encoded, e *types.Entry, enc []byte, d keys.Digest) {
	if m == nil {
		return
	}
	k := bucketKey{root: encd.Tree.Root(), dataLen: encd.DataLen}
	if _, ok := m.Get(k); !ok {
		m.Put(k, &outcome{entry: e, enc: enc, digest: d})
	}
}
