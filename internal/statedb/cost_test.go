package statedb_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// TestExecuteCostCeilings pins what the key index and records were bought for,
// in allocations and in counted work, never in time: on a warm store an
// executed transaction hashes and probes once per key access, the commit
// phase looks nothing up, and the only allocations are the one copy of each
// committed value the process's value memo does not hold yet and the batch's
// Result.Aborted. A run on a fresh memo copies every distinct value it
// commits, and the memo grows to hold them; a second node's run on the memo
// the first one filled copies none.
func TestExecuteCostCeilings(t *testing.T) {
	run := func(t *testing.T, e *aria.Engine, batch []types.Transaction) aria.Result {
		t.Helper()
		res, err := e.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("ycsb-a", func(t *testing.T) {
		w := workload.NewYCSB('a', workload.DefaultYCSBRows, 1)
		pool := make([][]types.Transaction, 40)
		for i := range pool {
			pool[i] = make([]types.Transaction, 400)
			for k := range pool[i] {
				pool[i][k] = w.Next(uint64(k%64 + 1))
			}
		}
		db := statedb.New()
		e := aria.NewEngine(db, w.Executor())
		e.Values = aria.NewValueMemo(1 << 15) // holds every value of the pool
		for _, b := range pool {
			run(t, e, b)
		}
		batch := pool[7]
		res := run(t, e, batch) // its writes are in the store now, the engine's scratch is sized

		// A ycsb transaction is one key access. Those whose key the store has
		// never held (reads of rows nobody wrote) probe the engine's own
		// table of new keys as well.
		aborted := make(map[int]bool)
		for _, i := range res.Aborted {
			aborted[i] = true
		}
		committedWrites, neverHeld := 0, 0
		for i, tx := range batch {
			key := fmt.Sprintf("y:%d:%d", binary.BigEndian.Uint64(tx.Payload[1:]), tx.Payload[9])
			if _, ok := db.Get(key); !ok {
				neverHeld++
			}
			if tx.Payload[0] == 0x02 && !aborted[i] {
				committedWrites++
			}
		}
		if committedWrites == 0 || len(res.Aborted) == 0 || neverHeld == 0 || neverHeld == len(batch) {
			t.Fatalf("the batch does not exercise every case: %d committed writes, %d aborted, %d of %d keys never held",
				committedWrites, len(res.Aborted), neverHeld, len(batch))
		}

		size, records := db.Len(), db.Records()
		hashes, probes, _ := statedb.CountWork(func() { run(t, e, batch) })
		if hashes != len(batch) {
			t.Errorf("%d keys hashed for %d key accesses, want one each (none in the commit phase)", hashes, len(batch))
		}
		if want := len(batch) + neverHeld; probes != want {
			t.Errorf("%d table probes, want %d: one per access, a second for each of the %d never-held keys, none in the commit phase",
				probes, want, neverHeld)
		}
		if db.Len() != size || db.Records() != records {
			t.Errorf("reading never-stored keys grew the store: Len %d → %d, records %d → %d", size, db.Len(), records, db.Records())
		}

		// Zero per read and per aborted write; one per committed write, whose
		// random 100 bytes a fresh memo does not hold, and the memo's growth
		// to hold them; one per batch, the result's list of aborted
		// transactions.
		shared := e.Values
		growth := memoGrowth(committedWrites)
		if got := allocsOnFreshMemos(e, 20, func() { run(t, e, batch) }); got != float64(committedWrites+1)+growth {
			t.Errorf("%v allocations per batch, want exactly the %d committed values, the memo's %v to hold them and Result.Aborted",
				got, committedWrites, growth)
		}

		// A second node executes the same batches on the memo the first one
		// filled: the memo holds every value it commits, so the result's list
		// is all it allocates.
		second := aria.NewEngine(statedb.New(), w.Executor())
		second.Values = shared
		for _, b := range pool {
			run(t, second, b)
		}
		if got := testing.AllocsPerRun(20, func() { run(t, second, batch) }); got != 1 {
			t.Errorf("%v allocations per batch on a shared memo, want exactly 1: Result.Aborted", got)
		}
	})

	// The engines of a process execute the same batches against stores on
	// one index: each key is filed once, by the first store to commit a write
	// to it, and each engine hashes once per key access as it does alone.
	t.Run("shared index", func(t *testing.T) {
		w := workload.NewYCSB('a', workload.DefaultYCSBRows, 2)
		batch := make([]types.Transaction, 400)
		for k := range batch {
			batch[k] = w.Next(uint64(k%64 + 1))
		}
		const n = 4
		ix := statedb.NewIndex()
		dbs := make([]*statedb.Store, n)
		hashes, _, inserts := statedb.CountWork(func() {
			for i := range dbs {
				dbs[i] = statedb.NewOn(ix)
				run(t, aria.NewEngine(dbs[i], w.Executor()), batch)
			}
		})
		written := dbs[0].Len() // ycsb writes no nil value: every written key is present
		if written == 0 || ix.Len() != written {
			t.Fatalf("%d keys written, %d in the index", written, ix.Len())
		}
		if inserts != written {
			t.Errorf("%d index inserts for %d engines writing the same %d new keys, want one per key", inserts, n, written)
		}
		if hashes != n*len(batch) {
			t.Errorf("%d keys hashed for %d engines of %d key accesses, want one per access", hashes, n, len(batch))
		}
		for i, db := range dbs {
			if db.Hash() != dbs[0].Hash() || db.Records() > ix.Len() {
				t.Errorf("store %d: a different state, or %d records for an index of %d keys", i, db.Records(), ix.Len())
			}
		}
	})

	// Growth moves slots by the hash they carry: filling a store through
	// many doublings hashes each key once, at its Put.
	t.Run("doubling", func(t *testing.T) {
		db := statedb.New()
		const n = 5000
		hashes, _, _ := statedb.CountWork(func() {
			for i := 0; i < n; i++ {
				db.Put(fmt.Sprintf("user%06d", i), []byte{1})
			}
		})
		if hashes != n || db.Records() != n {
			t.Fatalf("%d keys hashed to store %d keys (%d records)", hashes, n, db.Records())
		}
	})

	// smallbank and tpcc: on a fresh memo the batch allocates its distinct
	// committed values, the memo's growth to hold them, its Result.Aborted
	// and nothing else — exactly, on keys the store holds; NewOrder stores a
	// new order key per run, so there the table's own growth is allowed for.
	// The out-of-line batch uses ids long enough that its district and
	// customer keys (46 and 67 bytes) are held outside their records.
	big := func(v uint64) uint64 { return 1<<63 + v }
	payment := func(w, d, c uint64) types.Transaction {
		p := make([]byte, 33)
		p[0] = 0x02
		binary.BigEndian.PutUint64(p[1:], w)
		binary.BigEndian.PutUint64(p[9:], d)
		binary.BigEndian.PutUint64(p[17:], c)
		binary.BigEndian.PutUint64(p[25:], 5)
		return types.Transaction{Payload: p}
	}
	sb, tp := workload.NewSmallBank(50_000, 3), workload.NewTPCC(workload.DefaultWarehouses, 3)
	generate := func(w workload.Workload, keep func(types.Transaction) bool) (batch []types.Transaction) {
		for i := uint64(0); len(batch) < 200; i++ {
			if tx := w.Next(i); keep(tx) {
				batch = append(batch, tx)
			}
		}
		return batch
	}
	var outOfLine []types.Transaction
	for i := uint64(0); i < 200; i++ {
		outOfLine = append(outOfLine, payment(big(i), big(i), big(i)))
	}
	for _, tc := range []struct {
		name    string
		w       workload.Workload
		batch   []types.Transaction
		newKeys bool
	}{
		{"smallbank", sb, generate(sb, func(types.Transaction) bool { return true }), false},
		{"tpcc payment", tp, generate(tp, func(tx types.Transaction) bool { return tx.Payload[0] == 0x02 }), false},
		{"tpcc payment, out-of-line keys", tp, outOfLine, false},
		{"tpcc neworder", tp, generate(tp, func(tx types.Transaction) bool { return tx.Payload[0] == 0x01 }), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := statedb.New()
			e := aria.NewEngine(db, tc.w.Executor())
			run(t, e, tc.batch)
			if tc.name == "tpcc payment, out-of-line keys" {
				k := []byte(fmt.Sprintf("tp:c:%d:%d:%d", big(7), big(7), big(7)))
				db.View(func(r statedb.Reader) {
					if id := r.Find(k, statedb.HashKey(k)); id < 0 || len(r.Key(id)) <= statedb.InlineKey {
						t.Fatalf("customer key %s is not stored out of line (id %d)", k, id)
					}
				})
			}
			before := values(db)
			e.Values = freshMemos(1)[0]
			res := run(t, e, tc.batch)
			after := values(db)
			stored := make(map[*byte]bool) // the values the run allocated
			for id, v := range after {
				if v != nil && (id >= len(before) || before[id] != v) {
					stored[v] = true
				}
			}
			if len(stored) == 0 {
				t.Fatal("nothing was committed")
			}
			want := float64(len(stored)) + memoGrowth(len(stored))
			if len(res.Aborted) > 0 {
				want++ // not a value: the result's list of aborted transactions
			}
			got := allocsOnFreshMemos(e, 10, func() { run(t, e, tc.batch) })
			if tc.newKeys {
				if got > want+2 {
					t.Errorf("%v allocations per batch, want at most %v (new keys allowed two for the table)", got, want+2)
				}
			} else if got != want || db.Records() != len(after) {
				t.Errorf("%v allocations per batch, want exactly %v: %d values and the memo's growth (records %d → %d)",
					got, want, len(stored), len(after), db.Records())
			}
		})
	}
}

// allocsOnFreshMemos is testing.AllocsPerRun(runs, fn) with a fresh value
// memo handed to e before every call of fn.
func allocsOnFreshMemos(e *aria.Engine, runs int, fn func()) float64 {
	memos := freshMemos(runs + 1) // AllocsPerRun calls fn once more, to warm up
	return testing.AllocsPerRun(runs, func() {
		e.Values, memos = memos[0], memos[1:]
		fn()
	})
}

// freshMemos returns n empty value memos.
func freshMemos(n int) []*aria.ValueMemo {
	memos := make([]*aria.ValueMemo, n)
	for i := range memos {
		memos[i] = aria.NewValueMemo(1 << 12)
	}
	return memos
}

// memoGrowth is what a fresh value memo allocates to hold n values, measured
// alone: its table and its eviction ring grow as they fill, in steps that
// for the few hundred values of a batch depend on n alone.
func memoGrowth(n int) float64 {
	memos := freshMemos(11)
	return testing.AllocsPerRun(10, func() {
		m := memos[0]
		memos = memos[1:]
		for k := 0; k < n; k++ {
			m.Put(uint64(k), nil)
		}
	})
}

// values returns where each record's value starts, by id: a committed write
// installs a fresh allocation, or on a fresh memo the one its equal bytes got
// earlier in the batch, so a run's committed values are the entries that
// moved, counted once per allocation.
func values(db *statedb.Store) []*byte {
	out := make([]*byte, db.Records())
	db.View(func(r statedb.Reader) {
		for id := range out {
			if v, _ := r.Record(int32(id)).Value(); len(v) > 0 {
				out[id] = &v[0]
			}
		}
	})
	return out
}
