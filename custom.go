package massbft

import (
	"math/rand"
	"sort"

	"massbft/internal/aria"
	"massbft/internal/cluster"
	"massbft/internal/statedb"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// Snapshot is the read view a custom transaction executes against.
type Snapshot interface {
	// Get returns the value stored under key, if any.
	Get(key string) ([]byte, bool)
}

// CustomWorkload plugs application-defined transactions into the consensus
// stack. Generation runs at the group leaders; Execute runs deterministically
// on every node in the agreed global order, under Aria concurrency control
// (conflicting transactions within a batch are deterministically aborted and
// reported in Result.Aborted).
//
// Execute must be a pure function of (snapshot, payload): any
// non-determinism would fork the replicas' states.
type CustomWorkload interface {
	// Name labels the workload.
	Name() string
	// Next produces the next transaction payload for a client of the given
	// group. It is called by that group's leader only.
	Next(group int, client uint64) []byte
	// Execute interprets one payload: it returns the keys read, the buffered
	// writes (nil value deletes), whether the transaction's own logic aborts,
	// and an error only for malformed payloads.
	Execute(s Snapshot, payload []byte) (reads []string, writes map[string][]byte, abort bool, err error)
	// Load seeds the initial state; may be a no-op.
	Load(put func(key string, value []byte))
}

// customAdapter bridges CustomWorkload to the internal workload interface.
type customAdapter struct {
	cw    CustomWorkload
	group int
	rng   *rand.Rand
}

// Name implements workload.Workload.
func (a *customAdapter) Name() string { return a.cw.Name() }

// Load implements workload.Workload.
func (a *customAdapter) Load(db *statedb.Store) {
	a.cw.Load(func(k string, v []byte) { db.Put(k, append([]byte(nil), v...)) })
}

// Next implements workload.Workload.
func (a *customAdapter) Next(client uint64) types.Transaction {
	sig := make([]byte, 64)
	a.rng.Read(sig)
	return types.Transaction{
		Client:  client,
		Nonce:   a.rng.Uint64(),
		Payload: a.cw.Next(a.group, client),
		Sig:     sig,
	}
}

// Executor implements workload.Workload: the application's map-returning
// Execute runs against the footprint as a plain snapshot, and the read and
// write sets it declares are then recorded — the writes in sorted key order,
// so that every node meets the keys of an entry in the same order.
func (a *customAdapter) Executor() aria.Executor {
	return func(fp *aria.Footprint, tx *types.Transaction) (bool, error) {
		reads, writes, abort, err := a.cw.Execute(fp, tx.Payload)
		if err != nil || abort {
			return abort, err
		}
		var buf [64]byte // the footprint copies what it keeps of a key
		for _, k := range reads {
			fp.Read(append(buf[:0], k...))
		}
		order := make([]string, 0, len(writes))
		for k := range writes {
			order = append(order, k)
		}
		sort.Strings(order)
		for _, k := range order {
			fp.Write(append(buf[:0], k...), writes[k])
		}
		return false, nil
	}
}

func registerCustom(cfg *cluster.Config, cw CustomWorkload, seed int64) {
	cfg.WorkloadFactory = func(group int, groupSeed int64) workload.Workload {
		return &customAdapter{cw: cw, group: group, rng: rand.New(rand.NewSource(groupSeed))}
	}
	cfg.Workload = cw.Name()
}
