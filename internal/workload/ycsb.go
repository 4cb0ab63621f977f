package workload

import (
	"fmt"
	"math/rand"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// YCSB parameters from §VI: a single table of 10 columns, 100 bytes per
// column, 1,000,000 rows, Zipf skew 0.99. YCSB-A is 50% read / 50% write;
// YCSB-B is 95% read / 5% write.
const (
	DefaultYCSBRows = 1_000_000
	ycsbColumns     = 10
	ycsbColumnSize  = 100
	ycsbTheta       = 0.99
)

// YCSB payload ops.
const (
	ycsbOpRead  = 0x01
	ycsbOpWrite = 0x02
)

// YCSB is the key-value workload. Each transaction reads or blind-writes one
// column of one Zipf-distributed row, giving the paper's average transaction
// sizes (~201 B for A with half the transactions carrying a 100 B value,
// ~150 B for B).
type YCSB struct {
	mix  byte // 'a' or 'b'
	rows uint64
	rng  *rand.Rand
	zipf *Zipfian
}

// NewYCSB creates the workload; mix is 'a' or 'b'.
func NewYCSB(mix byte, rows uint64, seed int64) *YCSB {
	rng := rand.New(rand.NewSource(seed))
	return &YCSB{mix: mix, rows: rows, rng: rng, zipf: NewZipfian(rng, rows, ycsbTheta)}
}

// Name implements Workload.
func (y *YCSB) Name() string { return "ycsb-" + string(y.mix) }

// Load implements Workload. Rows are lazily initialized: a missing column
// reads as 100 zero bytes (see the package comment), so nothing is preloaded.
func (y *YCSB) Load(db *statedb.Store) {}

// ycsbKey is the storage key of one column of one row.
func ycsbKey(row uint64, col byte) storeKey { return key("y:", row, uint64(col)) }

// Next implements Workload.
func (y *YCSB) Next(client uint64) types.Transaction {
	row := y.zipf.Next()
	col := byte(y.rng.Intn(ycsbColumns))
	writeFrac := 0.50
	if y.mix == 'b' {
		writeFrac = 0.05
	}
	var payload []byte
	if y.rng.Float64() < writeFrac {
		payload = make([]byte, 10+ycsbColumnSize)
		payload[0] = ycsbOpWrite
		putU64(payload[1:], row)
		payload[9] = col
		y.rng.Read(payload[10:])
	} else {
		payload = make([]byte, 10)
		payload[0] = ycsbOpRead
		putU64(payload[1:], row)
		payload[9] = col
	}
	return types.Transaction{
		Client:  client,
		Nonce:   y.rng.Uint64(),
		Payload: payload,
		Sig:     dummySig(y.rng),
	}
}

// Executor implements Workload.
func (y *YCSB) Executor() aria.Executor {
	return func(fp *aria.Footprint, tx *types.Transaction) (bool, error) {
		p := tx.Payload
		if len(p) < 10 {
			return false, fmt.Errorf("ycsb: short payload (%d bytes)", len(p))
		}
		key := ycsbKey(getU64(p[1:]), p[9])
		switch p[0] {
		case ycsbOpRead:
			fp.Read(key.bytes())
			return false, nil
		case ycsbOpWrite:
			if len(p) != 10+ycsbColumnSize {
				return false, fmt.Errorf("ycsb: bad write payload size %d", len(p))
			}
			fp.Write(key.bytes(), p[10:])
			return false, nil
		}
		return false, fmt.Errorf("ycsb: unknown op %#x", p[0])
	}
}
