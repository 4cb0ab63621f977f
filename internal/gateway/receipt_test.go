package gateway

import (
	"sync"
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/merkle"
	"massbft/internal/types"
)

// signed is one node's receipt with its signature, as cluster.SignReplies
// would produce it.
type signed struct {
	rc     Receipt
	signer keys.NodeID
	sig    []byte
}

// signedReceipt builds node's receipt for an entry whose client transactions
// are leaves, through the gateway's own builder.
func signedReceipt(t testing.TB, node *keys.KeyPair, status byte, height uint64, result string, leaves []Addressee) signed {
	t.Helper()
	var s receiptScratch
	s.begin()
	for _, l := range leaves {
		s.add(l.Client, l.Nonce, true)
	}
	rc := *s.receipt(status, height, []byte(result))
	msg := keys.ReceiptMessage(nil, status, node.ID.Group, height, rc.Result, rc.Tree.Root(), rc.Tree.LeafCount())
	return signed{rc: rc, signer: node.ID, sig: node.Sign(msg)}
}

// replyFor is the reply sr's node sends for (client, nonce).
func replyFor(t testing.TB, sr signed, client, nonce uint64) Reply {
	t.Helper()
	for _, to := range sr.rc.To {
		if to.Client == client && to.Nonce == nonce {
			p, err := sr.rc.Tree.Prove(to.Index)
			if err != nil {
				t.Fatal(err)
			}
			return Reply{
				Client: client, Nonce: nonce, Status: sr.rc.Status, GID: sr.signer.Group,
				Height: sr.rc.Height, Result: sr.rc.Result,
				Leaves: sr.rc.Tree.LeafCount(), Index: to.Index, Path: p.Siblings,
				Signer: sr.signer, Sig: sr.sig,
			}
		}
	}
	t.Fatalf("receipt has no leaf (%d, %d)", client, nonce)
	return Reply{}
}

var testEntry = []Addressee{{Client: 1, Nonce: 4}, {Client: 2, Nonce: 8}, {Client: 3, Nonce: 9}, {Client: 5, Nonce: 1}, {Client: 7, Nonce: 2}}

// TestReceiptForgeries: a receipt is as hard to forge as the per-reply
// signature it replaces. The group has f = 0, so one valid reply certifies
// and every forgery below would, if it got past the path and signature
// checks. Client 3 waits for nonce 9.
func TestReceiptForgeries(t *testing.T) {
	pairs, reg, err := keys.GenerateCluster([]int{3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	node := pairs[0][0]
	entry := signedReceipt(t, node, StatusOK, 5, "ok", testEntry)
	good := replyFor(t, entry, 3, 9)
	dup := replyFor(t, signedReceipt(t, node, StatusDup, 5, "ok", testEntry[2:3]), 3, 9)
	// An entry client 3 has no transaction in, validly signed.
	foreign := signedReceipt(t, node, StatusOK, 5, "ok", append([]Addressee{{Client: 3, Nonce: 8}}, testEntry[:2]...))

	readdress := func(rep Reply) Reply { rep.Client, rep.Nonce = 3, 9; return rep }
	cases := []struct {
		name string
		rep  func() Reply
	}{
		{"path proves another client's transaction", func() Reply {
			return readdress(replyFor(t, entry, 1, 4))
		}},
		{"signature replayed at another leaf's index", func() Reply {
			rep := good
			rep.Index = 0
			return rep
		}},
		{"signature of an entry without the request", func() Reply {
			return readdress(replyFor(t, foreign, 1, 4))
		}},
		{"same client, another nonce", func() Reply {
			return readdress(replyFor(t, foreign, 3, 8))
		}},
		{"leaf count of the same depth", func() Reply {
			rep := good
			rep.Leaves = 6 // the path reaches the same root; the signature says 5
			return rep
		}},
		{"leaf count of another depth", func() Reply {
			rep := good
			rep.Leaves = 9
			return rep
		}},
		{"leaf count zero", func() Reply {
			rep := good
			rep.Leaves, rep.Index = 0, 0
			return rep
		}},
		{"short path", func() Reply {
			rep := good
			rep.Path = rep.Path[:len(rep.Path)-1]
			return rep
		}},
		{"long path", func() Reply {
			rep := good
			rep.Path = append(append([][merkle.HashSize]byte(nil), rep.Path...), rep.Path[0])
			return rep
		}},
		{"interior hash offered as a leaf", func() Reply {
			// The node above the request's leaf, as leaf 1 of the 3-node level.
			rep := good
			rep.Leaves, rep.Index, rep.Path = 3, 1, rep.Path[1:]
			return rep
		}},
		{"tampered sibling", func() Reply {
			rep := good
			rep.Path = append([][merkle.HashSize]byte(nil), rep.Path...)
			rep.Path[1][0] ^= 1
			return rep
		}},
		{"Dup swapped for OK", func() Reply {
			rep := dup
			rep.Status = StatusOK
			return rep
		}},
		{"OK swapped for Dup", func() Reply {
			rep := good
			rep.Status = StatusDup
			return rep
		}},
		{"unknown status", func() Reply {
			rep := good
			rep.Status = 3
			return rep
		}},
		{"height raised", func() Reply {
			rep := good
			rep.Height++
			return rep
		}},
		{"result replaced", func() Reply {
			rep := good
			rep.Result = []byte("no")
			return rep
		}},
		{"signer of another group", func() Reply {
			rep := good
			rep.Signer.Group = 1
			return rep
		}},
		{"another node's name on the signature", func() Reply {
			rep := good
			rep.Signer.Index = 1
			return rep
		}},
	}
	newReq := func() *Requester {
		r := NewRequester(RequesterConfig{
			Client: 3, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
		})
		r.Begin(9, at(0))
		return r
	}
	for _, tc := range cases {
		// Twice: the second time the verdict comes from the memo.
		for pass := 0; pass < 2; pass++ {
			if done, _ := newReq().OnReply(tc.rep(), at(1)); done {
				t.Errorf("%s: certified (pass %d)", tc.name, pass)
			}
		}
	}
	// The memo now holds an ok for none of those and this changes nothing for
	// the real replies: each certifies, the one-leaf dup answer included.
	for name, rep := range map[string]Reply{"entry receipt": good, "one-leaf dup receipt": dup} {
		done, res := newReq().OnReply(rep, at(1))
		if !done || res.Height != 5 || string(res.Result) != "ok" || res.Status != rep.Status {
			t.Errorf("%s: done=%v res=%+v", name, done, res)
		}
	}
}

// TestReceiptRootsAndCertificates: what must agree across signers is the
// execution, (GID, Height, Result) — an entry's receipt and a dedup answer's
// one-leaf receipt have different roots and certify together
// (TestRequesterCertificate) — so two signers whose roots belong to different
// executions never make a certificate, however many leaves they share.
func TestReceiptRootsAndCertificates(t *testing.T) {
	pairs, reg, err := keys.GenerateCluster([]int{4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRequester(RequesterConfig{
		Client: 3, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
	})
	r.Begin(9, at(0))
	a := signedReceipt(t, pairs[0][0], StatusOK, 5, "ok", testEntry)
	b := signedReceipt(t, pairs[0][1], StatusOK, 6, "ok", testEntry[1:])
	c := signedReceipt(t, pairs[0][2], StatusOK, 5, "other", testEntry[:3])
	for i, sr := range []signed{a, b, c} {
		if done, _ := r.OnReply(replyFor(t, sr, 3, 9), at(1)); done {
			t.Fatalf("certified at reply %d across different executions", i)
		}
	}
	// A second signer of execution a does.
	a2 := signedReceipt(t, pairs[0][3], StatusOK, 5, "ok", testEntry)
	if done, res := r.OnReply(replyFor(t, a2, 3, 9), at(2)); !done || res.Replies != 2 {
		t.Fatalf("done=%v res=%+v", done, res)
	}
}

// TestReceiptMemo: the shared memo answers by exact content. A failed check
// is remembered (a replayed forgery costs one verification), and neither a
// different signature nor a different root ever reads a remembered ok.
func TestReceiptMemo(t *testing.T) {
	pairs, reg, err := keys.GenerateCluster([]int{4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRequester(RequesterConfig{
		Client: 3, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
	})
	r.Begin(9, at(0))
	stats := func() (hits, misses uint64) { return reg.SigCacheStats() }
	good := replyFor(t, signedReceipt(t, pairs[0][0], StatusOK, 5, "ok", testEntry), 3, 9)

	bad := good
	bad.Sig = append([]byte(nil), good.Sig...)
	bad.Sig[5] ^= 1
	for i := 0; i < 3; i++ {
		r.OnReply(bad, at(1))
	}
	if hits, misses := stats(); hits != 2 || misses != 1 {
		t.Fatalf("replayed forgery: hits=%d misses=%d, want 2 and 1", hits, misses)
	}
	// The genuine reply is different content: checked, counted.
	if done, _ := r.OnReply(good, at(2)); done {
		t.Fatal("certified with one reply (f=1)")
	}
	if hits, misses := stats(); hits != 2 || misses != 2 {
		t.Fatalf("genuine reply: hits=%d misses=%d, want 2 and 2", hits, misses)
	}
	// The cached ok is for (signer, message over that root, signature). A
	// second client replaying the signature over its own path computes
	// another root: a new check, which fails.
	r2 := NewRequester(RequesterConfig{
		Client: 4, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
	})
	r2.Begin(9, at(0))
	replay := good
	replay.Client = 4
	r2.OnReply(replay, at(3))
	if hits, misses := stats(); hits != 2 || misses != 3 {
		t.Fatalf("other root: hits=%d misses=%d, want 2 and 3", hits, misses)
	}
	if r2.ncand != 0 {
		t.Fatal("a replayed signature was counted for another client")
	}
	// A signer already counted costs nothing, not even a memo lookup.
	r.OnReply(good, at(4))
	if hits, misses := stats(); hits != 2 || misses != 3 {
		t.Fatalf("counted signer: hits=%d misses=%d, want 2 and 3", hits, misses)
	}
}

// entryOf returns n client transactions (clients 1..n, one nonce) and the
// addressees they make.
func entryOf(n int, nonce uint64) ([]types.Transaction, []Addressee) {
	txns := make([]types.Transaction, n)
	leaves := make([]Addressee, n)
	for i := range txns {
		txns[i] = types.Transaction{Client: uint64(i + 1), Nonce: nonce}
		leaves[i] = Addressee{Client: uint64(i + 1), Nonce: nonce, Index: i}
	}
	return txns, leaves
}

// TestReceiptCostCeilings pins what the design buys. Node side: one receipt
// (one signature at the owner) per executed entry, however many transactions
// it answers. Client side: a client process pays f+1 signature checks per
// entry, not f+1 per transaction. And the steady state allocates nothing in
// the window or the requester.
func TestReceiptCostCeilings(t *testing.T) {
	const clients = 200
	pairs, reg, err := keys.GenerateCluster([]int{4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	txns, leaves := entryOf(clients, 1)

	// One Reply call per executed entry, none on a foreign group's entry or
	// on a re-execution.
	receipts, answered := 0, 0
	g := New(Config{Reply: func(rc *Receipt) {
		receipts++
		answered += len(rc.To)
		if rc.Tree.LeafCount() != clients {
			t.Errorf("tree has %d leaves, want %d", rc.Tree.LeafCount(), clients)
		}
	}})
	g.Executed(txns, 1, []byte("r"), true)
	if receipts != 1 || answered != clients {
		t.Fatalf("receipts=%d answered=%d, want 1 and %d", receipts, answered, clients)
	}
	g.Executed(txns, 1, []byte("r"), true) // all duplicates: nothing to answer
	other, _ := entryOf(clients, 2)
	g.Executed(other, 2, []byte("r"), false)
	if receipts != 1 {
		t.Fatalf("receipts=%d after a re-execution and a foreign entry, want 1", receipts)
	}
	// A mixed entry answers only the fresh transactions, over the whole tree.
	mixed, _ := entryOf(clients, 3)
	copy(mixed[:10], txns[:10])
	answered = 0
	g.Executed(mixed, 3, []byte("r"), true)
	if receipts != 2 || answered != clients-10 {
		t.Fatalf("mixed entry: receipts=%d answered=%d, want 2 and %d", receipts, answered, clients-10)
	}

	// f+1 = 2 verifications for the whole entry: the nodes reply one after
	// another, every client certifies on the second node's.
	reqs := make([]*Requester, clients)
	for i := range reqs {
		reqs[i] = NewRequester(RequesterConfig{
			Client: uint64(i + 1), Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
		})
		reqs[i].Begin(1, at(0))
	}
	certified := 0
	for _, node := range pairs[0] {
		sr := signedReceipt(t, node, StatusOK, 1, "r", leaves)
		for i, r := range reqs {
			if done, _ := r.OnReply(replyFor(t, sr, uint64(i+1), 1), at(1)); done {
				certified++
			}
		}
	}
	if _, misses := reg.SigCacheStats(); certified != clients || misses != 2 {
		t.Fatalf("certified=%d verifications=%d, want %d and 2", certified, misses, clients)
	}

	// Steady state: a request (Begin, f+1 replies, certificate) allocates
	// nothing; neither does recording an execution.
	r := reqs[0]
	reps := []Reply{
		replyFor(t, signedReceipt(t, pairs[0][0], StatusOK, 1, "r", leaves), 1, 1),
		replyFor(t, signedReceipt(t, pairs[0][1], StatusOK, 1, "r", leaves), 1, 1),
	}
	if n := testing.AllocsPerRun(50, func() {
		r.Begin(1, at(0))
		r.OnReply(reps[0], at(1))
		if done, _ := r.OnReply(reps[1], at(1)); !done {
			t.Fatal("not certified")
		}
	}); n != 0 {
		t.Errorf("a certified request allocates %v times", n)
	}
	nonce := uint64(100)
	res := []byte("r")
	for i := 0; i < defaultDedupWindow; i++ { // the window grows to its bound once
		nonce++
		g.MarkExecuted(Exec{Client: 1, Nonce: nonce, Height: nonce, Result: res})
	}
	if n := testing.AllocsPerRun(500, func() {
		nonce++
		g.MarkExecuted(Exec{Client: 1, Nonce: nonce, Height: nonce, Result: res})
	}); n != 0 {
		t.Errorf("MarkExecuted allocates %v times", n)
	}
}

// TestReceiptMemoConcurrent drives the shared memo the way a ClientPool
// does: one goroutine per logical client, each with its own Requester, all
// checking the same receipts through one registry. Run under -race.
func TestReceiptMemoConcurrent(t *testing.T) {
	const clients, entries = 8, 40
	pairs, reg, err := keys.GenerateCluster([]int{4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// replies[c][e] are client c+1's three replies for entry e: one genuine,
	// one forged (height raised), one genuine from a second signer.
	replies := make([][][3]Reply, clients)
	for e := 0; e < entries; e++ {
		nonce := uint64(e + 1)
		_, leaves := entryOf(clients, nonce)
		a := signedReceipt(t, pairs[0][e%4], StatusOK, nonce, "r", leaves)
		b := signedReceipt(t, pairs[0][(e+1)%4], StatusOK, nonce, "r", leaves)
		for c := range replies {
			id := uint64(c + 1)
			forged := replyFor(t, b, id, nonce)
			forged.Height++
			replies[c] = append(replies[c], [3]Reply{replyFor(t, a, id, nonce), forged, replyFor(t, b, id, nonce)})
		}
	}
	var wg sync.WaitGroup
	for c := range replies {
		wg.Add(1)
		go func(id uint64, work [][3]Reply) {
			defer wg.Done()
			r := NewRequester(RequesterConfig{
				Client: id, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
			})
			for e, reps := range work {
				r.Begin(uint64(e+1), at(0))
				r.OnReply(reps[0], at(1))
				r.OnReply(reps[1], at(1))
				if done, _ := r.OnReply(reps[2], at(1)); !done {
					t.Errorf("client %d entry %d not certified", id, e)
				}
			}
		}(uint64(c+1), replies[c])
	}
	wg.Wait()
	// Three distinct checks per entry; goroutines that miss together may
	// each run one before the first stores its verdict.
	if hits, misses := reg.SigCacheStats(); misses < 3*entries || hits+misses != 3*entries*clients {
		t.Fatalf("hits=%d misses=%d for %d checks of %d contents", hits, misses, 3*entries*clients, 3*entries)
	}
}
