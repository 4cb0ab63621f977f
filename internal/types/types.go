// Package types defines the wire-level data model shared by every protocol
// in this repository: client transactions, log entries (batches of
// transactions with consensus metadata, §II-A "Batching"), and their
// deterministic binary encodings. Digests are computed over the canonical
// encoding so every correct node derives identical digests for identical
// entries.
//
// Ownership: a decoded Entry or Transaction aliases the buffer it was decoded
// from (Payload and Sig are sub-slices of it) and is read-only from then on,
// as is the buffer. Every decode source — a PBFT payload, erasure.Join
// output, a wire-frame copy — is a buffer nobody rewrites; in a simulated
// cluster a receiver's rebuilt entry may be one a sender decoded from its
// PBFT payload, handed over by the sender's encode (replication.Seed). Code
// that wants a variant of an entry (the Byzantine tamper paths) copies the
// struct and replaces slices, never writes through them.
package types

import (
	"encoding/binary"
	"fmt"

	"massbft/internal/keys"
)

// Transaction is one client request. The payload is opaque to consensus; the
// execution layer (package aria + workload) interprets it.
type Transaction struct {
	// Client is an opaque client identifier used for reply routing.
	Client uint64
	// Nonce makes retransmissions distinguishable.
	Nonce uint64
	// Payload is the workload-specific operation encoding.
	Payload []byte
	// Sig is the client's signature over (Client, Nonce, Payload). In
	// benchmark "fast" mode the bytes are present (for correct traffic
	// accounting) but not verified; the verification cost is charged to the
	// node's CPU model instead, mirroring the paper's observation that
	// transaction signature verification dominates local consensus CPU.
	Sig []byte
}

// WireSize returns the serialized size of the transaction in bytes.
func (t *Transaction) WireSize() int { return 8 + 8 + 4 + len(t.Payload) + 4 + len(t.Sig) }

// AppendEncode appends the canonical encoding of t to buf.
func (t *Transaction) AppendEncode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, t.Client)
	buf = binary.BigEndian.AppendUint64(buf, t.Nonce)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Payload)))
	buf = append(buf, t.Payload...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Sig)))
	buf = append(buf, t.Sig...)
	return buf
}

// DecodeTransaction decodes one transaction from buf, returning the remaining
// bytes. Payload and Sig alias buf (capacity-clipped, so an append to either
// reallocates instead of overwriting buf).
func DecodeTransaction(buf []byte) (Transaction, []byte, error) {
	var t Transaction
	if len(buf) < 20 {
		return t, nil, fmt.Errorf("types: short transaction header (%d bytes)", len(buf))
	}
	t.Client = binary.BigEndian.Uint64(buf)
	t.Nonce = binary.BigEndian.Uint64(buf[8:])
	plen := int(binary.BigEndian.Uint32(buf[16:]))
	buf = buf[20:]
	if len(buf) < plen+4 {
		return t, nil, fmt.Errorf("types: short transaction payload")
	}
	t.Payload = buf[:plen:plen]
	buf = buf[plen:]
	slen := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < slen {
		return t, nil, fmt.Errorf("types: short transaction signature")
	}
	t.Sig = buf[:slen:slen]
	return t, buf[slen:], nil
}

// EntryID identifies an entry globally: the entry with local sequence number
// Seq proposed by group GID — e_{GID,Seq} in the paper's notation.
type EntryID struct {
	GID int
	Seq uint64
}

// String formats the ID like the paper: e{gid},{seq}.
func (id EntryID) String() string { return fmt.Sprintf("e%d,%d", id.GID, id.Seq) }

// Less orders EntryIDs by (GID, Seq) — the canonical iteration order every
// deterministic scan over entry sets must use (recovery retries, checkpoint
// folds, takeover stamping all iterate in this order so their event schedules
// replay identically across runs).
func (id EntryID) Less(o EntryID) bool {
	if id.GID != o.GID {
		return id.GID < o.GID
	}
	return id.Seq < o.Seq
}

// Entry is a log entry: a batch of transactions plus the consensus metadata
// the paper's Baseline model carries (term and commitIndex for global Raft).
type Entry struct {
	ID          EntryID
	Term        uint64
	CommitIndex uint64
	Txns        []Transaction
}

// WireSize returns the serialized size of the entry in bytes.
func (e *Entry) WireSize() int {
	n := entryHeader
	for i := range e.Txns {
		n += e.Txns[i].WireSize()
	}
	return n
}

// Encode returns the canonical binary encoding of the entry.
func (e *Entry) Encode() []byte {
	buf := make([]byte, 0, e.WireSize())
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.ID.GID))
	buf = binary.BigEndian.AppendUint64(buf, e.ID.Seq)
	buf = binary.BigEndian.AppendUint64(buf, e.Term)
	buf = binary.BigEndian.AppendUint64(buf, e.CommitIndex)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Txns)))
	for i := range e.Txns {
		buf = e.Txns[i].AppendEncode(buf)
	}
	return buf
}

// entryHeader is the fixed prefix of an encoded entry.
const entryHeader = 4 + 8 + 8 + 8 + 4

// PeekEntry reads an encoded entry's header — the entry with no transactions
// decoded — and its transaction count. It is what a caller that needs only
// the ID, the propose time or the batch size pays instead of DecodeEntry; the
// count is bounded the way DecodeEntry bounds it, but the transactions are
// not walked, so a nil error does not mean buf decodes.
func PeekEntry(buf []byte) (hdr Entry, txns int, err error) {
	if len(buf) < entryHeader {
		return hdr, 0, fmt.Errorf("types: short entry header (%d bytes)", len(buf))
	}
	hdr.ID.GID = int(binary.BigEndian.Uint32(buf))
	hdr.ID.Seq = binary.BigEndian.Uint64(buf[4:])
	hdr.Term = binary.BigEndian.Uint64(buf[12:])
	hdr.CommitIndex = binary.BigEndian.Uint64(buf[20:])
	txns = int(binary.BigEndian.Uint32(buf[28:]))
	// Each transaction needs at least 20 header bytes: an attacker-supplied
	// count larger than that bound cannot be honest, and must not drive a
	// huge preallocation.
	if txns > (len(buf)-entryHeader)/20 {
		return hdr, 0, fmt.Errorf("types: transaction count %d exceeds payload", txns)
	}
	return hdr, txns, nil
}

// DecodeEntry decodes an entry from its canonical encoding. The result
// aliases buf (see the package comment): two allocations, whatever the
// transaction count.
func DecodeEntry(buf []byte) (*Entry, error) {
	hdr, n, err := PeekEntry(buf)
	if err != nil {
		return nil, err
	}
	e := &hdr
	buf = buf[entryHeader:]
	e.Txns = make([]Transaction, 0, n)
	for i := 0; i < n; i++ {
		t, rest, err := DecodeTransaction(buf)
		if err != nil {
			return nil, fmt.Errorf("types: decoding txn %d: %w", i, err)
		}
		e.Txns = append(e.Txns, t)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("types: %d trailing bytes after entry", len(buf))
	}
	return e, nil
}

// Digest computes the entry's digest over its canonical encoding. The
// encoding is canonical both ways (DecodeEntry accepts exactly the bytes
// Encode produces), so a caller holding the bytes an entry was decoded from
// takes keys.Hash of those and skips the re-encode.
func (e *Entry) Digest() keys.Digest { return keys.Hash(e.Encode()) }
