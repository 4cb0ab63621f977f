package gateway

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// forge returns txn with its signature corrupted.
func forge(txn types.Transaction) types.Transaction {
	txn.Sig = append([]byte(nil), txn.Sig...)
	txn.Sig[40] ^= 4
	return txn
}

// counters reads the gateway's counters named in order.
func counters(g *Gateway, names ...string) []int64 {
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = g.cfg.Metrics.Counter(n)
	}
	return out
}

// TestForgedThenGenuine: a forged copy of (client, nonce) that reaches
// intake before the genuine request must not absorb it. The genuine copy
// queues as a rival and the cut takes it; the forgery is evicted.
func TestForgedThenGenuine(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	genuine := req(env.cks[0], 3, "mine")
	for _, txn := range []types.Transaction{forge(genuine), genuine, genuine} {
		if err := g.Submit(txn, at(0)); err != nil {
			t.Fatal(err)
		}
	}
	// The genuine retransmission differs from the first (forged) copy, so
	// it queues too; the cut takes one copy.
	cut := g.TakeBatch(at(1), 10, true)
	if len(cut) != 1 || !bytes.Equal(cut[0].Sig, genuine.Sig) {
		t.Fatalf("cut %+v, want the genuine request once", cut)
	}
	got := counters(g, "gateway-verify-fail", "gateway-verified", "gateway-dup-pending")
	if fmt.Sprint(got) != "[1 1 1]" {
		t.Fatalf("verify-fail, verified, dup-pending = %v, want [1 1 1]", got)
	}
	// The nonce is now taken: any further copy is absorbed.
	g.Submit(forge(genuine), at(2))
	g.Submit(genuine, at(2))
	if g.Pending() != 0 {
		t.Fatalf("%d copies queued after the nonce was cut", g.Pending())
	}
}

// TestGenuineThenForged: a forged copy arriving after the genuine one queues
// as a rival and is dropped at the cut as a duplicate of the nonce the
// genuine copy took, not counted as a failed signature.
func TestGenuineThenForged(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	genuine := req(env.cks[1], 1, "mine")
	g.Submit(genuine, at(0))
	g.Submit(forge(genuine), at(0))
	if g.Pending() != 2 {
		t.Fatalf("pending %d, want the genuine copy and its rival", g.Pending())
	}
	before := g.batch.Verified()
	cut := g.TakeBatch(at(1), 10, true)
	if len(cut) != 1 || !bytes.Equal(cut[0].Sig, genuine.Sig) {
		t.Fatalf("cut %+v, want the genuine request", cut)
	}
	// Both went through the equation: it failed, and each was checked alone.
	if n := g.batch.Verified() - before; n != 4 {
		t.Fatalf("%d signatures verified, want 2 + 2", n)
	}
	got := counters(g, "gateway-verified", "gateway-dup-pending", "gateway-verify-fail")
	if fmt.Sprint(got) != "[1 1 0]" {
		t.Fatalf("verified, dup-pending, verify-fail = %v, want [1 1 0]", got)
	}
}

// TestExactRetransmission: a copy with the queued copy's bytes is
// absorbed at intake as before verification moved to the cut, and costs the
// cut nothing.
func TestExactRetransmission(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	r := req(env.cks[2], 9, "again")
	for i := 0; i < 3; i++ {
		if err := g.Submit(r, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.Pending() != 1 || g.cfg.Metrics.Counter("gateway-dup-pending") != 2 {
		t.Fatalf("pending %d, dup-pending %d; want 1, 2", g.Pending(), g.cfg.Metrics.Counter("gateway-dup-pending"))
	}
	if cut := g.TakeBatch(at(5), 10, true); len(cut) != 1 || g.batch.Verified() != 1 {
		t.Fatalf("cut %d requests for %d signatures, want 1 and 1", len(cut), g.batch.Verified())
	}
}

// TestRivalsAcrossTwoCuts: a nonce's copies split over two cuts. The forged
// first copy is evicted by the first cut, the nonce stays pending for the
// genuine copy still queued, and the second cut takes it; a copy queued after
// that is dropped — also when the nonce has executed meanwhile.
func TestRivalsAcrossTwoCuts(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.MaxBatch = 2 })
	g := env.gw
	genuine := req(env.cks[3], 4, "split")
	other := req(env.cks[4], 1, "filler")
	for _, txn := range []types.Transaction{forge(genuine), other, genuine, genuine} {
		g.Submit(txn, at(0))
	}
	if g.Pending() != 4 {
		t.Fatalf("pending %d, want 4", g.Pending())
	}
	first := g.TakeBatch(at(1), 2, true)
	if len(first) != 1 || first[0].Client != other.Client {
		t.Fatalf("first cut %v, want the filler alone", clientsOf(first))
	}
	// Pending still: a fresh copy with the forged bytes is absorbed.
	g.Submit(forge(genuine), at(1))
	if g.Pending() != 2 {
		t.Fatalf("pending %d after the first cut, want the two genuine copies", g.Pending())
	}
	second := g.TakeBatch(at(2), 1, true)
	if len(second) != 1 || !bytes.Equal(second[0].Sig, genuine.Sig) {
		t.Fatalf("second cut %+v, want the genuine request", second)
	}
	g.Executed(second, 1, nil, false)
	if third := g.TakeBatch(at(3), 2, true); len(third) != 0 {
		t.Fatalf("the executed nonce was cut again: %+v", third)
	}
	got := counters(g, "gateway-verify-fail", "gateway-verified", "gateway-dup-pending", "gateway-executed")
	if fmt.Sprint(got) != "[1 2 2 1]" {
		t.Fatalf("verify-fail, verified, dup-pending, executed = %v, want [1 2 2 1]", got)
	}
	if len(g.clients[genuine.Client].pending) != 0 {
		t.Fatal("the nonce stayed pending after its last copy left the queue")
	}
}

// TestCutCostBounds pins what verifying at the cut costs, through
// ClientBatch.Verified: a clean cut of n is n signatures in one equation; a
// poisoned cut n + n; the cuts after it n singles each until one is clean,
// and then one equation again. Requests a failed proposal returns
// (PushFront) are not checked again.
func TestCutCostBounds(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.MaxBatch = 8; c.QueueLimit = 1024 })
	g := env.gw
	nonce := uint64(0)
	fill := func(n, bad int) {
		for i := 0; i < n; i++ {
			nonce++
			txn := req(env.cks[i%len(env.cks)], nonce, "x")
			if i < bad {
				txn = forge(txn)
			}
			g.Submit(txn, at(0))
		}
	}
	cost := func(wantCut int) uint64 {
		t.Helper()
		before := g.batch.Verified()
		if got := len(g.TakeBatch(at(0), 8, true)); got != wantCut {
			t.Fatalf("cut %d requests, want %d", got, wantCut)
		}
		return g.batch.Verified() - before
	}
	for _, step := range []struct {
		n, bad, cost int
		single       bool
	}{
		{8, 0, 8, false}, // clean: one equation
		{8, 1, 16, true}, // poisoned: the equation, then each alone
		{8, 2, 8, true},  // still poisoned: singles only
		{8, 0, 8, false}, // clean again, checked singly
		{8, 0, 8, false}, // and back to one equation
		{5, 5, 10, true}, // every signature bad
		{3, 0, 3, false}, // a short clean cut
		{0, 0, 0, false}, // nothing queued
		{8, 8, 16, true}, // poisoned by nothing but forgeries
		{1, 0, 1, false}, // a cut of one is clean alone
		{8, 0, 8, false}, // equation
		{7, 1, 14, true}, // one forgery
		{2, 0, 2, false}, // singles, clean
		{8, 0, 8, false}, // equation
		{6, 3, 12, true}, // half bad
		{6, 0, 6, false}, // singles, clean
		{1, 1, 2, true},  // a lone forgery: the equation, then alone
		{1, 1, 1, true},  // then alone only
		{3, 0, 3, false}, // clean
	} {
		fill(step.n, step.bad)
		if step.n == 0 {
			if g.TakeBatch(at(0), 8, true) != nil {
				t.Fatal("an empty queue cut something")
			}
			continue
		}
		if got := cost(step.n - step.bad); got != uint64(step.cost) || g.single != step.single {
			t.Fatalf("%d requests, %d bad: %d signatures verified, single %v; want %d, %v",
				step.n, step.bad, got, g.single, step.cost, step.single)
		}
	}

	// A failed proposal returns its cut; the next cut takes it unchecked.
	fill(4, 0)
	cut := g.TakeBatch(at(0), 8, true)
	before := g.batch.Verified()
	g.PushFront(cut, at(0))
	if again := g.TakeBatch(at(0), 8, true); len(again) != 4 || g.batch.Verified() != before {
		t.Fatalf("re-cut %d requests for %d signatures, want 4 for none", len(again), g.batch.Verified()-before)
	}
}

// FuzzIntakeCut drives one gateway with an interleaving of genuine, forged,
// exactly duplicated and rival submissions, cuts (forced and not), failed
// proposals returned with PushFront and executions, against a small model of
// the rules: a cut holds no bad signature and no (client, nonce) twice, no
// nonce is cut again while pending or once executed, every genuine request that intake did not
// absorb is cut exactly once (net of PushFront), and the cost bounds of
// TestCutCostBounds hold at every cut.
func FuzzIntakeCut(f *testing.F) {
	const clients, nonces = 3, 4
	cks, reg, err := keys.GenerateClients(clients, 5)
	if err != nil {
		f.Fatal(err)
	}
	type key struct{ client, nonce uint64 }
	genuine := map[key]types.Transaction{}
	for _, ck := range cks {
		for n := uint64(1); n <= nonces; n++ {
			genuine[key{ck.ID, n}] = req(ck, n, fmt.Sprintf("%d/%d", ck.ID, n))
		}
	}
	same := func(a, b types.Transaction) bool {
		return a.Client == b.Client && a.Nonce == b.Nonce && bytes.Equal(a.Sig, b.Sig) && bytes.Equal(a.Payload, b.Payload)
	}
	// The only valid copies the fuzzer makes are the genuine ones.
	valid := func(t types.Transaction) bool { return same(t, genuine[key{t.Client, t.Nonce}]) }
	f.Add([]byte{0, 1, 1, 1, 0, 1, 4, 2, 0, 5, 5, 0, 7, 0})
	f.Add([]byte{1, 3, 0, 3, 0, 3, 4, 1, 6, 0, 5, 0, 2, 3, 0, 3, 3, 0, 5, 0, 7, 0})
	f.Add([]byte{2, 7, 1, 7, 0, 7, 0, 8, 4, 3, 4, 3, 1, 8, 5, 0, 6, 0, 7, 0, 5, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		g := New(Config{MaxBatch: 4, MaxWait: 3 * time.Millisecond, QueueLimit: 1 << 16, DedupWindow: 1 << 10,
			Clients: reg, Metrics: metrics.NewCollector()})

		// The model: its own queue, the pending nonces, the executed ones.
		type entry struct {
			txn   types.Transaction
			at    int
			taken bool
		}
		type pend struct {
			first     types.Transaction
			queued    int
			cut, exec bool
		}
		var (
			queue   []entry
			pending = map[key]*pend{}
			done    = map[key]bool{}
			out     = map[key]bool{} // cut, not returned, not executed
			net     = map[key]int{}  // cuts minus PushFronts
			owed    = map[key]bool{} // a genuine copy intake did not absorb
			cuts    [][]types.Transaction
			last    types.Transaction
			now     int
		)
		submit := func(txn types.Transaction) {
			last = txn
			k := key{txn.Client, txn.Nonce}
			absorbed := done[k]
			if p := pending[k]; p != nil && (p.cut || same(p.first, txn)) {
				absorbed = true
			}
			if err := g.Submit(txn, at(now)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if absorbed {
				return
			}
			if pending[k] == nil {
				pending[k] = &pend{first: txn}
			}
			pending[k].queued++
			queue = append(queue, entry{txn: txn, at: now})
			if valid(txn) {
				owed[k] = true
			}
		}
		take := func(size int, force bool) {
			if len(queue) == 0 || !force && len(queue) < size && now-queue[0].at < 3 {
				if got := g.TakeBatch(at(now), size, force); got != nil {
					t.Fatalf("cut %d requests where the model holds back", len(got))
				}
				return
			}
			cut := queue[:min(len(queue), size)]
			checked, bad := 0, false
			for _, c := range cut {
				if !c.taken {
					checked++
					bad = bad || !valid(c.txn)
				}
			}
			var want []types.Transaction
			for _, c := range cut {
				k := key{c.txn.Client, c.txn.Nonce}
				if c.taken {
					want = append(want, c.txn)
					continue
				}
				p := pending[k]
				if p == nil {
					p = &pend{}
				}
				p.queued = max(p.queued-1, 0)
				if !p.cut && valid(c.txn) {
					p.cut = true
					want = append(want, c.txn)
				}
				if p.queued == 0 && (!p.cut || p.exec) {
					delete(pending, k)
				} else {
					pending[k] = p
				}
			}
			queue = queue[len(cut):]

			single, before := g.single, g.batch.Verified()
			got := g.TakeBatch(at(now), size, force)
			cost := int(g.batch.Verified() - before)
			if len(got) != len(want) {
				t.Fatalf("cut %d requests, model %d", len(got), len(want))
			}
			seen := map[key]bool{}
			for i, txn := range got {
				k := key{txn.Client, txn.Nonce}
				if !same(txn, want[i]) {
					t.Fatalf("cut position %d differs from the model", i)
				}
				if !ed25519.Verify(cks[k.client-1].Public, keys.ClientRequestMessage(k.client, k.nonce, txn.Payload), txn.Sig) {
					t.Fatalf("cut holds a bad signature: %+v", k)
				}
				if seen[k] || out[k] || done[k] {
					t.Fatalf("%+v cut twice while pending, or after it executed", k)
				}
				seen[k], out[k] = true, true
				net[k]++
			}
			switch {
			case single && cost != checked, !single && !bad && cost != checked, !single && bad && cost > 2*checked:
				t.Fatalf("cut of %d checked (bad %v, single %v) cost %d signatures", checked, bad, single, cost)
			}
			if g.single != bad {
				t.Fatalf("single = %v after a cut with bad = %v", g.single, bad)
			}
			if len(got) > 0 {
				cuts = append(cuts, got)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			now++
			arg := int(ops[i+1])
			k := key{uint64(1 + arg%clients), uint64(1 + arg/clients%nonces)}
			switch ops[i] % 8 {
			case 0: // genuine
				submit(genuine[k])
			case 1: // forged
				submit(forge(genuine[k]))
			case 2: // rival: the genuine signature over another payload
				r := genuine[k]
				r.Payload = []byte("rival")
				submit(r)
			case 3: // exact duplicate of the last submission
				if last.Client != 0 {
					submit(last)
				}
			case 4:
				take(1+arg%4, false)
			case 5:
				take(1+arg%4, true)
			case 6: // the newest outstanding proposal failed
				if n := len(cuts); n > 0 {
					c := cuts[n-1]
					cuts = cuts[:n-1]
					g.PushFront(c, at(now))
					head := make([]entry, 0, len(c)+len(queue))
					for _, txn := range c {
						k := key{txn.Client, txn.Nonce}
						delete(out, k)
						net[k]--
						head = append(head, entry{txn: txn, at: now, taken: true})
					}
					queue = append(head, queue...)
				}
			case 7: // the oldest outstanding proposal executed
				if len(cuts) > 0 {
					c := cuts[0]
					cuts = cuts[1:]
					g.Executed(c, uint64(now), nil, false)
					for _, txn := range c {
						k := key{txn.Client, txn.Nonce}
						delete(out, k)
						done[k] = true
						if p := pending[k]; p != nil && p.cut && p.queued > 0 {
							p.exec = true
						} else {
							delete(pending, k)
						}
					}
				}
			}
		}
		for len(queue) > 0 {
			now++
			take(4, true)
		}
		for k := range owed {
			if net[k] != 1 {
				t.Fatalf("genuine %+v cut %d times net of PushFront, want once", k, net[k])
			}
		}
		for k, n := range net {
			if !owed[k] || n != 1 {
				t.Fatalf("%+v cut %d times net, owed %v", k, n, owed[k])
			}
		}
	})
}
