package aria_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
	"massbft/internal/workload"
)

// snapshot is the read view a mapExecutor executes against.
type snapshot interface {
	Get(key string) ([]byte, bool)
}

// mapExecutor is the executor signature the engine had before footprints:
// it returns the transaction's read set, buffered write set (nil value =
// delete) and whether its own logic aborted. The public CustomWorkload still
// has this shape; adapt is what its adapter does.
type mapExecutor func(snap snapshot, tx *types.Transaction) (reads []string, writes map[string][]byte, abort bool, err error)

func adapt(exec mapExecutor) aria.Executor {
	return func(fp *aria.Footprint, tx *types.Transaction) (bool, error) {
		reads, writes, abort, err := exec(fp, tx)
		if err != nil || abort {
			return abort, err
		}
		for _, k := range reads {
			fp.Read([]byte(k))
		}
		for k, v := range writes {
			fp.Write([]byte(k), v)
		}
		return false, nil
	}
}

// oracleExecuteBatch is the engine's previous ExecuteBatch, kept verbatim as
// the reference the slot-based one is compared against: per-transaction
// footprint maps, per-batch reservation maps, a pending map applied at the
// end.
func oracleExecuteBatch(db *statedb.Store, exec mapExecutor, txns []types.Transaction) (aria.Result, error) {
	type txnFootprint struct {
		reads  []string
		writes map[string][]byte
		abort  bool
	}
	var res aria.Result
	foot := make([]txnFootprint, len(txns))

	// Phase 1: execute all against the batch-start snapshot.
	for i := range txns {
		reads, writes, abort, err := exec(db, &txns[i])
		if err != nil {
			return res, fmt.Errorf("aria: txn %d: %w", i, err)
		}
		foot[i] = txnFootprint{reads: reads, writes: writes, abort: abort}
		if abort {
			res.LogicAborted++
		}
	}

	// Phase 2: reservations — smallest index wins.
	writeRes := make(map[string]int)
	readRes := make(map[string]int)
	for i := range foot {
		if foot[i].abort {
			continue
		}
		for k := range foot[i].writes {
			if w, ok := writeRes[k]; !ok || i < w {
				writeRes[k] = i
			}
		}
		for _, k := range foot[i].reads {
			if r, ok := readRes[k]; !ok || i < r {
				readRes[k] = i
			}
		}
	}

	// Phase 3: commit decisions and apply.
	pending := make(map[string][]byte)
	for i := range foot {
		if foot[i].abort {
			continue
		}
		waw, raw, war := false, false, false
		for k := range foot[i].writes {
			if w := writeRes[k]; w < i {
				waw = true
				break
			}
		}
		if !waw {
			for _, k := range foot[i].reads {
				if w, ok := writeRes[k]; ok && w < i {
					raw = true
					break
				}
			}
			for k := range foot[i].writes {
				if r, ok := readRes[k]; ok && r < i {
					war = true
					break
				}
			}
		}
		if waw || (raw && war) {
			res.Aborted = append(res.Aborted, i)
			continue
		}
		for k, v := range foot[i].writes {
			pending[k] = v
		}
		res.Committed++
	}
	db.ApplyBatch(pending)
	return res, nil
}

// kvExec is a tiny test transaction language:
//
//	payload = op(1B) | key | 0x00 | value
//	op 'r': read key; op 'w': write key=value; op 't': transfer-style
//	read-modify-write (read key, write key=value); op 'a': logic abort.
func kvExec(snap snapshot, tx *types.Transaction) ([]string, map[string][]byte, bool, error) {
	if len(tx.Payload) == 0 {
		return nil, nil, false, errors.New("empty payload")
	}
	op := tx.Payload[0]
	rest := tx.Payload[1:]
	i := bytes.IndexByte(rest, 0)
	if i < 0 && op != 'a' {
		return nil, nil, false, errors.New("bad payload")
	}
	switch op {
	case 'r':
		key := string(rest[:i])
		snap.Get(key)
		return []string{key}, nil, false, nil
	case 'w':
		key := string(rest[:i])
		return nil, map[string][]byte{key: append([]byte(nil), rest[i+1:]...)}, false, nil
	case 't':
		key := string(rest[:i])
		snap.Get(key)
		return []string{key}, map[string][]byte{key: append([]byte(nil), rest[i+1:]...)}, false, nil
	case 'a':
		return nil, nil, true, nil
	}
	return nil, nil, false, errors.New("unknown op")
}

func tx(op byte, key, value string) types.Transaction {
	p := append([]byte{op}, key...)
	p = append(p, 0)
	p = append(p, value...)
	return types.Transaction{Payload: p}
}

func TestDisjointWritesAllCommit(t *testing.T) {
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	res, err := e.ExecuteBatch([]types.Transaction{
		tx('w', "a", "1"), tx('w', "b", "2"), tx('w', "c", "3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 3 || len(res.Aborted) != 0 {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := e.DB().Get("b"); string(v) != "2" {
		t.Fatal("write not applied")
	}
}

func TestWAWOnlyFirstWriterCommits(t *testing.T) {
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	res, err := e.ExecuteBatch([]types.Transaction{
		tx('w', "k", "first"), tx('w', "k", "second"), tx('w', "k", "third"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || len(res.Aborted) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if v, _ := e.DB().Get("k"); string(v) != "first" {
		t.Fatalf("k = %q, want first (deterministic winner)", v)
	}
}

func TestRAWWithoutWARCommits(t *testing.T) {
	// T0 writes k; T1 reads k (RAW) but writes nothing — Aria reorders T1
	// before T0, so both commit.
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	res, err := e.ExecuteBatch([]types.Transaction{tx('w', "k", "v"), tx('r', "k", "")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 2 || len(res.Aborted) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRAWPlusWARAborts(t *testing.T) {
	// T0 writes k. T1 reads k and writes m; T2 reads m. T1 has RAW (on k)
	// and WAR (T2 reads m... no, WAR needs a SMALLER index reading T1's
	// write). Build: T0 reads m and writes k... Let's make it direct:
	// T0: r m, w k. T1: r k, w m. T1 has RAW on k (T0 writes k) and WAR on
	// m (T0 reads m) -> abort. T0 has no RAW (m unwritten by smaller) -> commit.
	custom := func(snap snapshot, tx *types.Transaction) ([]string, map[string][]byte, bool, error) {
		switch tx.Client {
		case 0:
			return []string{"m"}, map[string][]byte{"k": []byte("0")}, false, nil
		case 1:
			return []string{"k"}, map[string][]byte{"m": []byte("1")}, false, nil
		}
		return nil, nil, false, errors.New("bad")
	}
	e2 := aria.NewEngine(statedb.New(), adapt(custom))
	res, err := e2.ExecuteBatch([]types.Transaction{{Client: 0}, {Client: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || len(res.Aborted) != 1 || res.Aborted[0] != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadModifyWriteHotspotAborts(t *testing.T) {
	// The paper's TPC-C Payment hotspot: many RMWs on one key in one batch;
	// exactly one commits (WAW for the rest).
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	batch := make([]types.Transaction, 10)
	for i := range batch {
		batch[i] = tx('t', "hot", "v")
	}
	res, err := e.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 || len(res.Aborted) != 9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLogicAbortNotRetried(t *testing.T) {
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	res, err := e.ExecuteBatch([]types.Transaction{tx('a', "", ""), tx('w', "a", "1")})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogicAborted != 1 || res.Committed != 1 || len(res.Aborted) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestMalformedPayloadErrors(t *testing.T) {
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	if _, err := e.ExecuteBatch([]types.Transaction{{Payload: nil}}); err == nil {
		t.Fatal("malformed payload did not error")
	}
}

func TestSnapshotIsolationWithinBatch(t *testing.T) {
	// A read in the same batch must NOT see a write buffered by an earlier
	// transaction of the batch: all execute against the batch-start state.
	db := statedb.New()
	db.Put("k", []byte("old"))
	var seen []byte
	custom := func(snap snapshot, tx *types.Transaction) ([]string, map[string][]byte, bool, error) {
		switch tx.Client {
		case 0:
			return nil, map[string][]byte{"k": []byte("new")}, false, nil
		case 1:
			v, _ := snap.Get("k")
			seen = append([]byte(nil), v...)
			return []string{"k"}, nil, false, nil
		}
		return nil, nil, false, errors.New("bad")
	}
	e := aria.NewEngine(db, adapt(custom))
	if _, err := e.ExecuteBatch([]types.Transaction{{Client: 0}, {Client: 1}}); err != nil {
		t.Fatal(err)
	}
	if string(seen) != "old" {
		t.Fatalf("txn saw %q, want batch-start snapshot", seen)
	}
}

// TestDeterminism is the property the whole system leans on: identical
// batches over identical states produce identical results and states,
// across engines.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mkBatch := func() []types.Transaction {
		batch := make([]types.Transaction, 50)
		for i := range batch {
			key := string(rune('a' + rng.Intn(8)))
			var v [8]byte
			binary.BigEndian.PutUint64(v[:], rng.Uint64())
			switch rng.Intn(3) {
			case 0:
				batch[i] = tx('r', key, "")
			case 1:
				batch[i] = tx('w', key, string(v[:]))
			default:
				batch[i] = tx('t', key, string(v[:]))
			}
		}
		return batch
	}
	for trial := 0; trial < 20; trial++ {
		batch := mkBatch()
		e1 := aria.NewEngine(statedb.New(), adapt(kvExec))
		e2 := aria.NewEngine(statedb.New(), adapt(kvExec))
		r1, err1 := e1.ExecuteBatch(batch)
		r2, err2 := e2.ExecuteBatch(batch)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Committed != r2.Committed || len(r1.Aborted) != len(r2.Aborted) {
			t.Fatalf("trial %d: results diverge: %+v vs %+v", trial, r1, r2)
		}
		if e1.DB().Hash() != e2.DB().Hash() {
			t.Fatalf("trial %d: state hashes diverge", trial)
		}
	}
}

func BenchmarkExecuteBatch200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := make([]types.Transaction, 200)
	for i := range batch {
		key := string(rune('a' + rng.Intn(1000)%26))
		batch[i] = tx('t', key+string(rune('0'+rng.Intn(10))), "value")
	}
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// progExec is a map-returning executor over a small key space whose payload
// is a program of (op, key) byte pairs: 'r' read, 'w' write the nonce, 'd'
// delete (a nil write), 'a' logic abort. Programs repeat reads, read and
// write one key, and write a key twice.
func progExec(snap snapshot, tx *types.Transaction) ([]string, map[string][]byte, bool, error) {
	p := tx.Payload
	if len(p)%2 != 0 {
		return nil, nil, false, errors.New("odd program")
	}
	var reads []string
	var writes map[string][]byte
	for i := 0; i < len(p); i += 2 {
		key := string(p[i+1 : i+2])
		switch p[i] {
		case 'r':
			snap.Get(key)
			reads = append(reads, key)
		case 'w', 'd':
			if writes == nil {
				writes = make(map[string][]byte)
			}
			var v []byte
			if p[i] == 'w' {
				v = binary.BigEndian.AppendUint64(nil, tx.Nonce)
			}
			writes[key] = v
		case 'a':
			return reads, writes, true, nil
		default:
			return nil, nil, false, errors.New("unknown op")
		}
	}
	return reads, writes, false, nil
}

func progBatch(rng *rand.Rand, n int) []types.Transaction {
	batch := make([]types.Transaction, n)
	for i := range batch {
		var p []byte
		for ops := rng.Intn(5); ops >= 0; ops-- {
			op := "rrrwwwda"[rng.Intn(8)]
			if op == 'a' && rng.Intn(4) != 0 {
				op = 'r'
			}
			p = append(p, op, byte('a'+rng.Intn(12)))
		}
		batch[i] = types.Transaction{Nonce: rng.Uint64(), Payload: p}
	}
	return batch
}

// TestDifferentialAgainstMapOracle runs the same random batches through
// ExecuteBatch and through the map-based implementation it replaced, from
// equal states, and requires equal results and equal state hashes after every
// batch: the four shipped workloads over key spaces small enough to conflict
// heavily, and a map-returning executor with repeated reads, reads and writes
// of one key, deletes and logic aborts.
func TestDifferentialAgainstMapOracle(t *testing.T) {
	type subject struct {
		name   string
		exec   aria.Executor
		oracle mapExecutor
		next   func(rng *rand.Rand, n int) []types.Transaction
	}
	subjects := []subject{{name: "prog", exec: adapt(progExec), oracle: progExec, next: progBatch}}
	for _, w := range []workload.Workload{
		workload.NewYCSB('a', 300, 7), workload.NewYCSB('b', 300, 7),
		workload.NewSmallBank(40, 7), workload.NewTPCC(2, 7),
	} {
		w, exec := w, w.Executor()
		subjects = append(subjects, subject{
			name: w.Name(),
			exec: exec,
			oracle: func(snap snapshot, tx *types.Transaction) ([]string, map[string][]byte, bool, error) {
				return aria.Record(exec, snap.(*statedb.Store), tx)
			},
			next: func(_ *rand.Rand, n int) []types.Transaction {
				batch := make([]types.Transaction, n)
				for i := range batch {
					batch[i] = w.Next(uint64(i))
				}
				return batch
			},
		})
	}
	for _, s := range subjects {
		rng := rand.New(rand.NewSource(99))
		got, want := statedb.New(), statedb.New()
		eng := aria.NewEngine(got, s.exec)
		for b := 0; b < 30; b++ {
			batch := s.next(rng, 1+rng.Intn(300))
			gr, gerr := eng.ExecuteBatch(batch)
			wr, werr := oracleExecuteBatch(want, s.oracle, batch)
			if gerr != nil || werr != nil {
				t.Fatalf("%s batch %d: %v / %v", s.name, b, gerr, werr)
			}
			if !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s batch %d: result %+v, oracle %+v", s.name, b, gr, wr)
			}
			if got.Hash() != want.Hash() {
				t.Fatalf("%s batch %d: state diverges from the oracle's", s.name, b)
			}
		}
		if got.Len() == 0 {
			t.Fatalf("%s: nothing was stored", s.name)
		}
	}
}

// TestRestoreMidRun: a node that rejoins installs a donor's state under an
// engine that has run batches of its own, so whatever per-batch marks the
// donor's records carried, and whatever its own records carried before, must
// mean nothing to the batch that follows: both nodes execute it alike.
func TestRestoreMidRun(t *testing.T) {
	w := workload.NewYCSB('a', 300, 5) // few rows: every batch re-touches and conflicts on stored keys
	exec := w.Executor()
	next := func() []types.Transaction {
		batch := make([]types.Transaction, 200)
		for i := range batch {
			batch[i] = w.Next(uint64(i))
		}
		return batch
	}
	donor := aria.NewEngine(statedb.New(), exec)
	rejoiner := aria.NewEngine(statedb.New(), exec)
	for b := 0; b < 6; b++ { // the same number of batches each, over different keys in a different order
		if _, err := donor.ExecuteBatch(next()); err != nil {
			t.Fatal(err)
		}
		if _, err := rejoiner.ExecuteBatch(next()); err != nil {
			t.Fatal(err)
		}
	}
	if donor.DB().Hash() == rejoiner.DB().Hash() {
		t.Fatal("the two nodes did not diverge before the transfer")
	}
	rejoiner.DB().Restore(donor.DB().Clone()) // what onRejoinReq ships and onRejoinResp installs
	for b := 0; b < 3; b++ {
		batch := next()
		want, err := donor.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rejoiner.ExecuteBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(want.Aborted) == 0 {
			t.Fatalf("batch %d after the transfer: rejoiner %+v, donor %+v", b, got, want)
		}
		if donor.DB().Hash() != rejoiner.DB().Hash() {
			t.Fatalf("batch %d after the transfer: states differ", b)
		}
	}
}

// TestEnginesShareOneCopyOfEachValue is what the nodes of a simulated cluster
// do: two engines on one value memo execute the same batch over equal states,
// and the second stores the first's slices — no value of its own, however
// often it runs the batch — and reaches the same state. A memo entry whose
// bytes differ from the value looked up is never handed out.
func TestEnginesShareOneCopyOfEachValue(t *testing.T) {
	w := workload.NewYCSB('a', 300, 3)
	batch := make([]types.Transaction, 200)
	for i := range batch {
		batch[i] = w.Next(uint64(i))
	}
	memo := aria.NewValueMemo(1 << 12)
	first, second := aria.NewEngine(statedb.New(), w.Executor()), aria.NewEngine(statedb.New(), w.Executor())
	first.Values, second.Values = memo, memo
	want, err := first.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.ExecuteBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(want.Aborted) == 0 {
		t.Fatalf("second engine %+v, first %+v (the batch must abort some)", got, want)
	}
	if first.DB().Hash() != second.DB().Hash() {
		t.Fatal("the two stores differ")
	}
	shared := 0
	for _, tx := range batch {
		if tx.Payload[0] != 0x02 {
			continue
		}
		key := fmt.Sprintf("y:%d:%d", binary.BigEndian.Uint64(tx.Payload[1:]), tx.Payload[9])
		v1, ok1 := first.DB().Get(key)
		v2, ok2 := second.DB().Get(key)
		if !ok1 || !ok2 || &v1[0] != &v2[0] {
			t.Fatalf("%s: the second store does not hold the first store's slice", key)
		}
		shared++
	}
	if shared == 0 || memo.Len() == 0 {
		t.Fatalf("%d values shared, memo holds %d", shared, memo.Len())
	}
	// Every value the batch commits is in the memo: the only allocation left
	// is the result's list of aborted transactions.
	if n := testing.AllocsPerRun(10, func() { second.ExecuteBatch(batch) }); n != 1 {
		t.Errorf("%v allocations per batch on a shared memo, want exactly 1 (Result.Aborted)", n)
	}

	// Other bytes planted under the value's hash: the engine stores a copy of
	// its own, and the memo keeps that in the planted entry's place.
	planted := []byte("other")
	memo = aria.NewValueMemo(4)
	memo.Put(aria.HashValue([]byte("value")), planted)
	e := aria.NewEngine(statedb.New(), adapt(kvExec))
	e.Values = memo
	if _, err := e.ExecuteBatch([]types.Transaction{tx('w', "k", "value")}); err != nil {
		t.Fatal(err)
	}
	v, _ := e.DB().Get("k")
	if string(v) != "value" || &v[0] == &planted[0] || string(planted) != "other" {
		t.Fatalf("stored %q from a memo entry holding other bytes (now %q)", v, planted)
	}
	if m, _ := memo.Get(aria.HashValue(v)); memo.Len() != 1 || &m[0] != &v[0] {
		t.Fatal("the memo did not replace the planted entry with the stored copy")
	}
}

// TestReadersWhileExecuting is what ProcNode.Status does over TCP: other
// goroutines call Get, Hash and a snapshot's Get while the node's own
// goroutine executes batches — which writes the per-batch marks into the
// store's records under the read lock those readers also hold. Run with
// -race.
func TestReadersWhileExecuting(t *testing.T) {
	w := workload.NewYCSB('a', 500, 9)
	e := aria.NewEngine(statedb.New(), w.Executor())
	db := e.DB()
	batch := func() []types.Transaction {
		b := make([]types.Transaction, 100)
		for i := range b {
			b[i] = w.Next(uint64(i))
		}
		return b
	}
	if _, err := e.ExecuteBatch(batch()); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot() // stays open: the writes below pay for its before-images
	want := db.Hash()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func(k string){
		func(k string) { db.Get(k) },
		func(k string) { sn.Get(k) },
		func(string) { db.Hash() },
		func(string) { db.Clone() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					read(fmt.Sprintf("y:%d:%d", i%500, i%10))
				}
			}
		}()
	}
	for b := 0; b < 60; b++ {
		if _, err := e.ExecuteBatch(batch()); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if sn.Store().Hash() != want {
		t.Fatal("the snapshot moved while batches executed")
	}
}

// TestCloneEncodedWhileIndexGrows is what onRejoinReq does on a process
// fabric: a clone of the node's store is encoded off the event loop while
// the node goes on executing. The clone shares the process's key index, and
// here the store and a sibling on the same index commit keys it has never
// held, so the index grows under the goroutine that Saves and Hashes the
// clone. Run with -race.
func TestCloneEncodedWhileIndexGrows(t *testing.T) {
	w := workload.NewYCSB('a', workload.DefaultYCSBRows, 5)
	batches := make([][]types.Transaction, 40)
	for i := range batches {
		for k := 0; k < 200; k++ {
			batches[i] = append(batches[i], w.Next(uint64(k)))
		}
	}
	ix := statedb.NewIndex()
	e := aria.NewEngine(statedb.NewOn(ix), w.Executor())
	sibling := aria.NewEngine(statedb.NewOn(ix), w.Executor())
	for _, eng := range []*aria.Engine{e, sibling} {
		if _, err := eng.ExecuteBatch(batches[0]); err != nil {
			t.Fatal(err)
		}
	}
	clone := e.DB().Clone()
	var want bytes.Buffer
	if err := clone.Save(&want); err != nil {
		t.Fatal(err)
	}
	wantHash, filed := clone.Hash(), ix.Len()

	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				close(done)
				return
			default:
			}
			var got bytes.Buffer
			if err := clone.Save(&got); err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || clone.Hash() != wantHash {
				done <- errors.New("the clone's encoding changed while its index grew")
				return
			}
		}
	}()
	for _, b := range batches[1:] {
		for _, eng := range []*aria.Engine{e, sibling} {
			if _, err := eng.ExecuteBatch(b); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ix.Len() < 4*filed {
		t.Fatalf("the index grew from %d to %d keys: not through two doublings", filed, ix.Len())
	}
	if err := ix.Verify(); err != nil {
		t.Fatal(err)
	}
	if e.DB().Hash() != sibling.DB().Hash() {
		t.Fatal("two engines on one index executed the same batches into different states")
	}
}

// BenchmarkExecuteYCSB is the shape of the ledger's aria.txn_ns_ycsb_a drive:
// 300 entries of 400 transactions cycled over one store.
func BenchmarkExecuteYCSB(b *testing.B) {
	w := workload.NewYCSB('a', workload.DefaultYCSBRows, 1)
	pool := make([][]types.Transaction, 300)
	for i := range pool {
		for k := 0; k < 400; k++ {
			pool[i] = append(pool[i], w.Next(uint64(k%64+1)))
		}
	}
	e := aria.NewEngine(statedb.New(), w.Executor())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteBatch(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
}
