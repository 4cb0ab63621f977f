// Package workload implements the paper's three benchmark workloads (§VI
// "Workload"): YCSB (A and B mixes, Zipfian skew 0.99), SmallBank (uniform),
// and a TPC-C subset (50% NewOrder, 50% Payment). Each workload provides a
// deterministic transaction generator and an aria.Executor that interprets
// its payloads.
//
// Substitution note (documented in DESIGN.md): the paper preloads 1,000,000
// YCSB rows and SmallBank accounts; this package initializes records lazily
// (missing keys read as their well-defined initial value), which preserves
// the conflict structure — the only thing the executor's behaviour depends
// on — without gigabytes of resident state.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// Workload generates transactions and knows how to execute them.
type Workload interface {
	// Name returns the workload identifier (e.g. "ycsb-a").
	Name() string
	// Load writes any eagerly-initialized state into db.
	Load(db *statedb.Store)
	// Next produces the next transaction for the given client.
	Next(client uint64) types.Transaction
	// Executor returns the transaction logic for this workload.
	Executor() aria.Executor
}

// New constructs a workload by name: "ycsb-a", "ycsb-b", "smallbank",
// "tpcc". The seed makes generation deterministic.
func New(name string, seed int64) (Workload, error) {
	switch name {
	case "ycsb-a":
		return NewYCSB('a', DefaultYCSBRows, seed), nil
	case "ycsb-b":
		return NewYCSB('b', DefaultYCSBRows, seed), nil
	case "smallbank":
		return NewSmallBank(DefaultAccounts, seed), nil
	case "tpcc":
		return NewTPCC(DefaultWarehouses, seed), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// Names lists the supported workload names.
func Names() []string { return []string{"ycsb-a", "ycsb-b", "smallbank", "tpcc"} }

// sigSize is the client signature size carried by every transaction (§VI:
// ED25519); benchmarks account for its bytes without verifying it per-txn.
const sigSize = 64

// dummySig returns a deterministic pseudo-signature so transactions have the
// right wire size in benchmarks; integration tests that exercise real client
// signing replace it.
func dummySig(rng *rand.Rand) []byte {
	sig := make([]byte, sigSize)
	rng.Read(sig)
	return sig
}

func putU64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func getU64(b []byte) uint64    { return binary.BigEndian.Uint64(b) }

// storeKey is a storage key where the executor formatted it: a value on the
// executor's stack, never a heap string. The store copies the bytes the first
// time it stores something under them.
type storeKey struct {
	n int
	b [80]byte // the longest key, "tp:c:" plus three 20-digit ids, is 67
}

// key builds a storage key: prefix followed by the decimal ids joined by
// ':'. The executors call it per key touched.
func key(prefix string, ids ...uint64) (k storeKey) {
	b := append(k.b[:0], prefix...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendUint(b, id, 10)
	}
	k.n = len(b)
	return k
}

func (k *storeKey) bytes() []byte { return k.b[:k.n] }

// String is the form the store's string-keyed methods take.
func (k storeKey) String() string { return string(k.b[:k.n]) }

// readI64 reads key through fp as an int64, def when it is missing.
func readI64(fp *aria.Footprint, key *storeKey, def int64) int64 {
	v, ok := fp.Read(key.bytes())
	return i64of(v, ok, def)
}

// writeI64 buffers a write of v under key.
func writeI64(fp *aria.Footprint, key *storeKey, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	fp.Write(key.bytes(), b[:])
}

// i64of decodes a statedb value as int64, with a default when missing.
func i64of(b []byte, ok bool, def int64) int64 {
	if !ok || len(b) != 8 {
		return def
	}
	return int64(binary.BigEndian.Uint64(b))
}
