// Package aria implements Aria-style deterministic concurrency control
// (Lu et al., VLDB 2020), the executor the paper uses so transaction
// execution never needs cross-node coordination (§VI "Implementation").
//
// A batch of transactions executes in three deterministic phases:
//
//  1. Execute: every transaction runs against the same snapshot (the state
//     as of the batch start), recording its read and write sets. Writes are
//     buffered, never applied directly.
//  2. Reserve: for every key, the smallest transaction index that writes
//     (and reads) it wins the reservation.
//  3. Commit: transaction T commits iff it has no write-after-write hazard,
//     and no read-after-write hazard or no write-after-read hazard:
//     commit(T) ⇔ ¬WAW(T) ∧ (¬WAR(T) ∨ ¬RAW(T)).
//     Aborted transactions are reported so the caller can retry or count
//     them (the paper's TPC-C abort-rate discussion, §VI-A).
//
// Because every phase is a deterministic function of (state, batch), all
// correct nodes applying the same ordered entries converge to identical
// states — asserted in tests via statedb.Hash.
//
// The batch's bookkeeping lives in one Footprint the engine owns and reuses.
// An executor formats a key into a buffer of its own and the footprint looks
// it up in the store's key table — the only time the key is hashed. The
// record found carries the key's slot in this batch (statedb.Record.Slot),
// reservations are one slot-indexed array, and the committed writes go back
// to the store by record id in one call. Keys the store has never held get
// their slots from a small table of the footprint's own, filed under the
// hash already computed, and enter the store only if a write to them
// commits. Nothing is allocated per transaction except one copy of every
// committed value — one per process, not one per store: the engines of a
// process share a ValueMemo, and an engine that commits bytes another engine
// stored moments before stores the same slice.
package aria

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"

	"massbft/internal/fifo"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// ValueMemo holds the newest committed values by content, for the engines of
// one process to store one copy of each: in a simulated cluster every node
// commits the same values within a pipeline of each other. A value found
// under its hash is handed out only if its bytes are equal, so a collision
// costs a copy, never a wrong value. Like the stores' values, what it holds
// is read-only. Not safe for concurrent use: the engines sharing one take
// turns on one goroutine.
type ValueMemo = fifo.Memo[uint64, []byte]

// NewValueMemo returns a process's shared value memo holding up to max values.
func NewValueMemo(max int) *ValueMemo { return fifo.NewMemo[uint64, []byte](max) }

// valueSeed seeds the value hash; like the key table's, it is drawn per
// process and never observable.
var valueSeed = maphash.MakeSeed()

func hashValue(v []byte) uint64 { return maphash.Bytes(valueSeed, v) }

// Executor runs one transaction's logic against the batch-start snapshot
// through fp — Read returns a key's value and records the read, Write buffers
// a write — and reports whether the transaction's own logic aborted (e.g. an
// overdraft), in which case whatever it recorded is discarded. An error means
// a malformed payload and fails the whole batch.
type Executor func(fp *Footprint, tx *types.Transaction) (abort bool, err error)

// Result summarizes one batch execution.
type Result struct {
	Committed int
	// Aborted lists indexes of transactions aborted by conflicts (to be
	// retried by the caller if desired).
	Aborted []int
	// LogicAborted counts transactions whose own logic aborted (not
	// conflict-related; they are not retried).
	LogicAborted int
}

// noTxn marks a slot no transaction has reserved; it compares above every
// transaction index, so "reserved by an earlier transaction" is one <.
const noTxn = math.MaxInt32

// Footprint is what the transactions of one batch read and wrote. An
// Executor sees it as the snapshot it reads and the buffer it writes to.
type Footprint struct {
	snap statedb.Reader

	// Every key a batch touches gets a slot, in order of first touch. A key
	// the store has a record for remembers its slot there; fresh holds the
	// others, for this batch only.
	slots []slot
	fresh statedb.Table

	// ops holds every transaction's reads and writes in call order; txns[i]
	// says where transaction i's end. vals backs the written values.
	ops  []op
	txns []txnEnd
	vals []byte

	// The committed writes, handed to the store in one call, and the indexes
	// of the conflict-aborted transactions, copied out at their final size.
	applyIDs  []int32
	applyVals [][]byte
	aborted   []int
}

// slot is one key's reservations in the batch: minW (minR) is the smallest
// index of a transaction that writes (reads) it, or noTxn. id is the key's
// record in the store, or ^i for record i of Footprint.fresh; it is also what
// tells a record's Slot mark, which outlives the batch that set it, from a
// live one: the mark counts only if the slot it names names the record back.
type slot struct {
	id         int32
	minW, minR int32
}

type op struct {
	slot  uint32
	write bool
	del   bool  // a write of nil: delete the key
	off   int32 // the written value is vals[off : off+n]
	n     int32
}

type txnEnd struct {
	ops   int32 // transaction i's ops are ops[txns[i-1].ops:txns[i].ops]
	abort bool  // its own logic aborted
}

// Get returns key's value in the batch-start snapshot without recording a
// read: for executors that declare their read set themselves (the public
// CustomWorkload adapter). Shipped workloads use Read. The value is
// read-only: it is shared with every store of the process.
func (fp *Footprint) Get(key string) ([]byte, bool) { return fp.snap.Get(key) }

// Read returns key's value in the batch-start snapshot and adds key to the
// transaction's read set. key is the caller's to reuse once Read returns; the
// value is read-only, as Get's is.
func (fp *Footprint) Read(key []byte) ([]byte, bool) {
	s, val, ok := fp.touch(key)
	fp.ops = append(fp.ops, op{slot: s})
	return val, ok
}

// Write buffers a write of val under key; a nil val deletes the key. key and
// val are copied before Write returns, so the caller may pass a slice of the
// transaction payload or of a buffer it reuses.
func (fp *Footprint) Write(key, val []byte) {
	s, _, _ := fp.touch(key)
	fp.ops = append(fp.ops, op{
		slot: s, write: true, del: val == nil,
		off: int32(len(fp.vals)), n: int32(len(val)),
	})
	fp.vals = append(fp.vals, val...)
}

// touch finds key — one hash, one probe of the store's table — and returns
// its slot in this batch, giving it one on first touch, with its value in
// the batch-start snapshot.
func (fp *Footprint) touch(key []byte) (s uint32, val []byte, ok bool) {
	h := statedb.HashKey(key)
	id := fp.snap.Find(key, h)
	var rec *statedb.Record
	if id >= 0 {
		rec = fp.snap.Record(id)
		val, ok = rec.Value()
	} else {
		// Reading a key must not make the store hold it.
		i := fp.fresh.Find(key, h)
		if i < 0 {
			i = fp.fresh.Insert(key, h)
		}
		rec, id = fp.fresh.Record(i), ^i
	}
	if s = rec.Slot; int(s) >= len(fp.slots) || fp.slots[s].id != id {
		s = uint32(len(fp.slots))
		rec.Slot = s
		fp.slots = append(fp.slots, slot{id: id, minW: noTxn, minR: noTxn})
	}
	return s, val, ok
}

func (fp *Footprint) reset() {
	fp.fresh.Reset()
	fp.slots = fp.slots[:0]
	fp.ops, fp.txns, fp.vals = fp.ops[:0], fp.txns[:0], fp.vals[:0]
}

// Engine executes batches against a Store. ExecuteBatch reuses the engine's
// Footprint, so one engine runs one batch at a time.
type Engine struct {
	// Values, when set, is the process's value memo: a committed value equal
	// to one it holds is stored as that slice. Without one, every committed
	// value is a copy of its own.
	Values *ValueMemo

	db   *statedb.Store
	exec Executor
	fp   Footprint
}

// NewEngine creates an engine over db with the given transaction logic.
func NewEngine(db *statedb.Store, exec Executor) *Engine {
	return &Engine{db: db, exec: exec}
}

// DB returns the underlying store.
func (e *Engine) DB() *statedb.Store { return e.db }

// ExecuteBatch runs one batch deterministically and applies the committed
// writes.
func (e *Engine) ExecuteBatch(txns []types.Transaction) (Result, error) {
	var res Result
	fp := &e.fp
	fp.reset()

	// Phases 1 and 2, one store read lock for both: execute every
	// transaction against the batch-start snapshot and let it reserve its
	// keys. Transactions run in index order, so the first to reserve a slot
	// is the smallest index.
	var err error
	e.db.View(func(snap statedb.Reader) {
		fp.snap = snap
		res.LogicAborted, err = e.run(txns)
	})
	fp.snap = statedb.Reader{}
	if err != nil {
		return Result{}, err
	}

	// Phase 3: commit decisions. A committed transaction is the smallest
	// writer of every key it writes (no WAW), so each key has at most one
	// committed writer per batch and the writes need no merging.
	fp.applyIDs, fp.applyVals, fp.aborted = fp.applyIDs[:0], fp.applyVals[:0], fp.aborted[:0]
	start := int32(0)
	for i, t := range fp.txns {
		ops := fp.ops[start:t.ops]
		start = t.ops
		if t.abort {
			continue
		}
		if fp.conflicts(int32(i), ops) {
			fp.aborted = append(fp.aborted, i)
			continue
		}
		for _, o := range ops {
			if !o.write {
				continue
			}
			var v []byte
			if !o.del {
				v = e.store(fp.vals[o.off : o.off+o.n])
			}
			fp.applyIDs = append(fp.applyIDs, fp.slots[o.slot].id)
			fp.applyVals = append(fp.applyVals, v)
		}
		res.Committed++
	}
	e.db.Commit(fp.applyIDs, fp.applyVals, &fp.fresh)
	if len(fp.aborted) > 0 {
		res.Aborted = append([]int(nil), fp.aborted...)
	}
	return res, nil
}

// store returns the slice a committed value b is stored as. Each is an
// allocation of its own, never a slice of the batch arena (or an entry
// buffer), which a 100-byte value must not keep reachable; with a memo it
// is the process's one copy of those bytes.
func (e *Engine) store(b []byte) []byte {
	if e.Values == nil {
		return append(make([]byte, 0, len(b)), b...)
	}
	h := hashValue(b)
	if v, ok := e.Values.Get(h); ok && bytes.Equal(v, b) {
		return v
	}
	v := append(make([]byte, 0, len(b)), b...)
	e.Values.Put(h, v)
	return v
}

// run executes txns in order against fp.snap, leaving every surviving
// transaction's ops and reservations in fp.
func (e *Engine) run(txns []types.Transaction) (logicAborted int, err error) {
	fp := &e.fp
	for i := range txns {
		start := len(fp.ops)
		abort, xerr := e.exec(fp, &txns[i])
		if xerr != nil {
			return 0, fmt.Errorf("aria: txn %d: %w", i, xerr)
		}
		if abort {
			fp.ops = fp.ops[:start]
			logicAborted++
		}
		for _, o := range fp.ops[start:] {
			first := &fp.slots[o.slot].minR
			if o.write {
				first = &fp.slots[o.slot].minW
			}
			if *first == noTxn {
				*first = int32(i)
			}
		}
		fp.txns = append(fp.txns, txnEnd{ops: int32(len(fp.ops)), abort: abort})
	}
	return logicAborted, nil
}

// conflicts applies Aria's commit rule to transaction i: it must abort on a
// WAW hazard, or on a RAW and a WAR hazard together.
func (fp *Footprint) conflicts(i int32, ops []op) bool {
	raw, war := false, false
	for _, o := range ops {
		earlierWriter := fp.slots[o.slot].minW < i
		switch {
		case !o.write:
			raw = raw || earlierWriter
		case earlierWriter:
			return true // WAW
		default:
			war = war || fp.slots[o.slot].minR < i
		}
	}
	return raw && war
}
