// Package erasure implements a systematic Reed-Solomon erasure code over
// GF(2^8), equivalent in semantics to the coding library used by the MassBFT
// paper (§VI "Implementation"): a message is split into dataShards chunks and
// parityShards additional chunks are computed such that any dataShards of the
// dataShards+parityShards total chunks suffice to rebuild the message.
//
// The construction is the standard systematic Vandermonde one: start from a
// total x data Vandermonde matrix, left-multiply by the inverse of its top
// square so the first dataShards rows become the identity. Data shards are
// then verbatim slices of the message and every square submatrix of the
// encoding matrix remains invertible, which is what Reconstruct relies on.
package erasure

import (
	"errors"
	"fmt"

	"massbft/internal/fifo"
	"massbft/internal/gf256"
)

// Limits of the GF(2^8) construction.
const (
	// MaxShards is the maximum total number of shards (data+parity).
	MaxShards = 256
)

// Errors returned by the codec.
var (
	ErrInvalidShardCount = errors.New("erasure: shard counts must be positive and total at most 256")
	ErrTooFewShards      = errors.New("erasure: not enough shards to reconstruct")
	ErrShardSizeMismatch = errors.New("erasure: shards have inconsistent sizes")
	ErrShortData         = errors.New("erasure: data shorter than implied by shard size")
)

// Encoder encodes and reconstructs shard sets for one (dataShards,
// parityShards) geometry. An Encoder is safe for concurrent use after
// construction: the matrix is read-only and the decode-matrix memo is locked.
type Encoder struct {
	dataShards   int
	parityShards int
	total        int
	// matrix is the total x dataShards systematic encoding matrix.
	matrix *gf256.Matrix

	// inverses memoizes the inverted decode submatrices of the newest 128
	// sets of present rows. Reconstructing a stream of entries that lost the
	// same shard indices (the same senders are down or banned for a while)
	// pays the O(dataShards^3) Gauss-Jordan inversion once, not per entry.
	inverses *fifo.Locked[string, *gf256.Matrix]
}

// New returns an Encoder for the given geometry. Most callers want Cached
// instead, which memoizes encoders per geometry and skips the systematic
// matrix construction (a Vandermonde inversion) on every call.
func New(dataShards, parityShards int) (*Encoder, error) {
	if dataShards <= 0 || parityShards < 0 || dataShards+parityShards > MaxShards {
		return nil, ErrInvalidShardCount
	}
	total := dataShards + parityShards
	vm := gf256.Vandermonde(total, dataShards)
	top := vm.SubMatrix(identityRows(dataShards))
	topInv, err := top.Invert()
	if err != nil {
		// Vandermonde tops are always invertible; this is unreachable for
		// valid geometries but kept as defence in depth.
		return nil, fmt.Errorf("erasure: building systematic matrix: %w", err)
	}
	return &Encoder{
		dataShards:   dataShards,
		parityShards: parityShards,
		total:        total,
		matrix:       vm.Mul(topInv),
		inverses:     fifo.NewLocked[string, *gf256.Matrix](128),
	}, nil
}

// encoders memoizes the newest 64 geometries: a cluster uses a handful of
// transfer-plan geometries for its whole lifetime, and building one inverts
// a Vandermonde matrix.
var encoders = fifo.NewLocked[[2]int, *Encoder](64)

// Cached returns a shared Encoder for the given geometry, constructing it on
// first use. Sharing is safe because Encoder is safe for concurrent use.
func Cached(dataShards, parityShards int) (*Encoder, error) {
	key := [2]int{dataShards, parityShards}
	if e, ok := encoders.Get(key); ok {
		return e, nil
	}
	e, err := New(dataShards, parityShards)
	if err == nil {
		encoders.Put(key, e)
	}
	return e, err
}

func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// DataShards returns the number of data shards.
func (e *Encoder) DataShards() int { return e.dataShards }

// ParityShards returns the number of parity shards.
func (e *Encoder) ParityShards() int { return e.parityShards }

// TotalShards returns dataShards+parityShards.
func (e *Encoder) TotalShards() int { return e.total }

// ShardSize returns the per-shard size used for a message of dataLen bytes:
// ceil(dataLen / dataShards).
func (e *Encoder) ShardSize(dataLen int) int {
	return (dataLen + e.dataShards - 1) / e.dataShards
}

// parityInto computes parity row i of the encoding matrix over the data
// shards into dst, overwriting it. Sources are consumed in pairs so each
// destination block is read and written half as often as with one
// MulAddSlice pass per source; the first pair overwrites, which also saves
// the initial zero-fill read.
func (e *Encoder) parityInto(i int, data [][]byte, dst []byte) {
	row := e.matrix.Row(i)
	k := e.dataShards
	j := 0
	if k >= 2 {
		gf256.Mul2Slice(row[0], data[0], row[1], data[1], dst)
		j = 2
	} else {
		gf256.MulSlice(row[0], data[0], dst)
		j = 1
	}
	for ; j+2 <= k; j += 2 {
		gf256.MulAdd2Slice(row[j], data[j], row[j+1], data[j+1], dst)
	}
	if j < k {
		gf256.MulAddSlice(row[j], data[j], dst)
	}
}

// Split encodes data into the full set of total shards. The message is padded
// with zeros to a multiple of the shard size; callers must remember the
// original length to undo the padding (see Join).
//
// A data shard that lies wholly inside data is a capacity-clipped sub-slice
// of it, not a copy: only the padded last data shard, any all-padding shard
// after it and the parity shards are allocated, in one buffer. The shards
// alias data, so neither may be written while the other is in use.
func (e *Encoder) Split(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("erasure: empty data")
	}
	size := e.ShardSize(len(data))
	full := len(data) / size // at most dataShards, as size rounds up
	shards := make([][]byte, e.total)
	for i := 0; i < full; i++ {
		shards[i] = data[i*size : (i+1)*size : (i+1)*size]
	}
	// The rest share one buffer, each shard capacity-clipped so an append
	// cannot bleed into a neighbour.
	backing := make([]byte, (e.total-full)*size)
	for i := full; i < e.total; i++ {
		off := (i - full) * size
		shards[i] = backing[off : off+size : off+size]
	}
	if full < e.dataShards {
		copy(shards[full], data[full*size:])
	}
	// Parity shards: rows dataShards..total-1 of the matrix times data.
	dataView := shards[:e.dataShards]
	for i := e.dataShards; i < e.total; i++ {
		e.parityInto(i, dataView, shards[i])
	}
	return shards, nil
}

// Join reverses Split: it concatenates the data shards and trims to dataLen.
// The shards slice must contain at least the first dataShards entries, all
// non-nil (call Reconstruct first if some are missing).
func (e *Encoder) Join(shards [][]byte, dataLen int) ([]byte, error) {
	if len(shards) < e.dataShards {
		return nil, ErrTooFewShards
	}
	size := -1
	for i := 0; i < e.dataShards; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("erasure: data shard %d missing (reconstruct first)", i)
		}
		if size == -1 {
			size = len(shards[i])
		} else if len(shards[i]) != size {
			return nil, ErrShardSizeMismatch
		}
	}
	if size*e.dataShards < dataLen {
		return nil, ErrShortData
	}
	out := make([]byte, 0, dataLen)
	for i := 0; i < e.dataShards && len(out) < dataLen; i++ {
		need := dataLen - len(out)
		if need > size {
			need = size
		}
		out = append(out, shards[i][:need]...)
	}
	return out, nil
}

// decodeMatrix returns the inverse of the submatrix formed by the given
// present rows, memoized per row set. present must hold exactly dataShards
// ascending indices (< 256, guaranteed by MaxShards).
func (e *Encoder) decodeMatrix(present []int) (*gf256.Matrix, error) {
	key := make([]byte, len(present))
	for i, p := range present {
		key[i] = byte(p)
	}
	k := string(key)
	if inv, ok := e.inverses.Get(k); ok {
		return inv, nil
	}
	inv, err := e.matrix.SubMatrix(present).Invert()
	if err == nil {
		e.inverses.Put(k, inv)
	}
	return inv, err
}

// rowInto combines the given source shards with the coefficients in row into
// dst (overwrite), pairing sources like parityInto.
func rowInto(row []byte, srcs [][]byte, dst []byte) {
	k := len(row)
	j := 0
	if k >= 2 {
		gf256.Mul2Slice(row[0], srcs[0], row[1], srcs[1], dst)
		j = 2
	} else {
		gf256.MulSlice(row[0], srcs[0], dst)
		j = 1
	}
	for ; j+2 <= k; j += 2 {
		gf256.MulAdd2Slice(row[j], srcs[j], row[j+1], srcs[j+1], dst)
	}
	if j < k {
		gf256.MulAddSlice(row[j], srcs[j], dst)
	}
}

// Reconstruct fills in all missing shards (nil entries) in place. It needs at
// least dataShards present shards; otherwise it returns ErrTooFewShards.
// Present shards are trusted to be correct — callers verify chunk integrity
// separately (Merkle proofs in MassBFT, §IV-C).
func (e *Encoder) Reconstruct(shards [][]byte) error {
	return e.reconstruct(shards, true)
}

// ReconstructData fills in only the missing data shards, skipping the parity
// recompute. This is what the replication rebuild path wants: it joins the
// data shards immediately after, so regenerating the missing parity rows
// (over half the total rows at the paper geometry) is pure waste.
func (e *Encoder) ReconstructData(shards [][]byte) error {
	return e.reconstruct(shards, false)
}

func (e *Encoder) reconstruct(shards [][]byte, withParity bool) error {
	if len(shards) != e.total {
		return fmt.Errorf("erasure: got %d shards, want %d", len(shards), e.total)
	}
	present := make([]int, 0, e.dataShards)
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
		if len(present) < e.dataShards {
			present = append(present, i)
		}
	}
	if len(present) < e.dataShards {
		return ErrTooFewShards
	}

	// Solve for missing data shards from any dataShards present rows. Each
	// inverse row yields one data shard independently, so only the missing
	// rows are computed (the pre-overhaul code solved all of them).
	var missingData []int
	for i := 0; i < e.dataShards; i++ {
		if shards[i] == nil {
			missingData = append(missingData, i)
		}
	}
	if len(missingData) > 0 {
		inv, err := e.decodeMatrix(present)
		if err != nil {
			return fmt.Errorf("erasure: reconstruct: %w", err)
		}
		srcs := make([][]byte, e.dataShards)
		for c, p := range present {
			srcs[c] = shards[p]
		}
		for _, r := range missingData {
			buf := make([]byte, size)
			rowInto(inv.Row(r), srcs, buf)
			shards[r] = buf
		}
	}
	if !withParity {
		return nil
	}
	// Recompute any missing parity from the (now complete) data shards.
	dataView := shards[:e.dataShards]
	for i := e.dataShards; i < e.total; i++ {
		if shards[i] == nil {
			buf := make([]byte, size)
			e.parityInto(i, dataView, buf)
			shards[i] = buf
		}
	}
	return nil
}

// Verify checks that the parity shards are consistent with the data shards.
// All shards must be present. It returns true when every parity shard matches
// a fresh re-encode of the data shards.
func (e *Encoder) Verify(shards [][]byte) (bool, error) {
	if len(shards) != e.total {
		return false, fmt.Errorf("erasure: got %d shards, want %d", len(shards), e.total)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			return false, fmt.Errorf("erasure: shard %d missing", i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return false, ErrShardSizeMismatch
		}
	}
	buf := make([]byte, size)
	for i := e.dataShards; i < e.total; i++ {
		e.parityInto(i, shards[:e.dataShards], buf)
		for j := range buf {
			if buf[j] != shards[i][j] {
				return false, nil
			}
		}
	}
	return true, nil
}
