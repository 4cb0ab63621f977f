package replication

import (
	"massbft/internal/fifo"
	"massbft/internal/keys"
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
type RebuildMemo = fifo.Memo[bucketKey, *outcome]

// NewEncodeMemo returns a process's shared encoding memo holding up to max
// encodings.
func NewEncodeMemo(max int) *EncodeMemo { return fifo.NewMemo[EncodeKey, *Encoded](max) }

// NewRebuildMemo returns a process's shared rebuild memo holding up to max
// outcomes.
func NewRebuildMemo(max int) *RebuildMemo { return fifo.NewMemo[bucketKey, *outcome](max) }
