package erasure

import (
	"errors"
	"fmt"

	"massbft/internal/gf256"
)

// The pre-overhaul codec paths: the oracle the equivalence tests pin the fast
// paths to and the baseline of the *Ref benchmarks. Both pay the full
// per-entry cost the replication layer used to pay: a fresh systematic
// matrix per call (New), byte-at-a-time log/exp arithmetic, per-shard
// allocations, and — for reconstruction — a fresh Gauss-Jordan inversion
// plus a recompute of every missing parity row whether or not the caller
// needs it.

// refMulAdd is dst[i] ^= c*src[i], one gf256.Mul (log/exp) per byte.
func refMulAdd(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] ^= gf256.Mul(c, s)
	}
}

// RefSplit encodes data at the given geometry exactly like the
// pre-overhaul per-entry encode path.
func RefSplit(dataShards, parityShards int, data []byte) ([][]byte, error) {
	e, err := New(dataShards, parityShards)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, errors.New("erasure: empty data")
	}
	size := e.ShardSize(len(data))
	shards := make([][]byte, e.total)
	for i := 0; i < e.dataShards; i++ {
		shards[i] = make([]byte, size)
		start := i * size
		if start < len(data) {
			copy(shards[i], data[start:])
		}
	}
	for i := e.dataShards; i < e.total; i++ {
		shards[i] = make([]byte, size)
		row := e.matrix.Row(i)
		for j := 0; j < e.dataShards; j++ {
			refMulAdd(row[j], shards[j], shards[i])
		}
	}
	return shards, nil
}

// RefReconstruct fills in all missing shards exactly like the pre-overhaul
// per-entry rebuild path.
func RefReconstruct(dataShards, parityShards int, shards [][]byte) error {
	e, err := New(dataShards, parityShards)
	if err != nil {
		return err
	}
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
	allData := true
	for i := 0; i < e.dataShards; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if !allData {
		sub := e.matrix.SubMatrix(present)
		inv, err := sub.Invert()
		if err != nil {
			return fmt.Errorf("erasure: reconstruct: %w", err)
		}
		data := make([][]byte, e.dataShards)
		for r := 0; r < e.dataShards; r++ {
			data[r] = make([]byte, size)
			row := inv.Row(r)
			for c := 0; c < e.dataShards; c++ {
				refMulAdd(row[c], shards[present[c]], data[r])
			}
		}
		for i := 0; i < e.dataShards; i++ {
			if shards[i] == nil {
				shards[i] = data[i]
			}
		}
	}
	for i := e.dataShards; i < e.total; i++ {
		if shards[i] != nil {
			continue
		}
		shards[i] = make([]byte, size)
		row := e.matrix.Row(i)
		for j := 0; j < e.dataShards; j++ {
			refMulAdd(row[j], shards[j], shards[i])
		}
	}
	return nil
}
