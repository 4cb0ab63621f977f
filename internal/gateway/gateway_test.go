package gateway

import (
	"testing"
	"time"

	"massbft/internal/keys"
	"massbft/internal/types"
)

// testEnv bundles a gateway with a deterministic client registry and a
// captured reply stream.
type testEnv struct {
	gw      *Gateway
	cks     []*keys.ClientKey
	replies []replyRec
}

type replyRec struct {
	client, nonce uint64
	cached        bool
	height        uint64
}

func newEnv(t *testing.T, mut func(*Config)) *testEnv {
	t.Helper()
	cks, reg, err := keys.GenerateClients(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{cks: cks}
	cfg := Config{
		Group:    0,
		MaxBatch: 4,
		MaxWait:  20 * time.Millisecond,
		Clients:  reg,
		Reply: func(rc *Receipt) {
			for _, to := range rc.To {
				env.replies = append(env.replies, replyRec{to.Client, to.Nonce, rc.Status == StatusDup, rc.Height})
			}
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	env.gw = New(cfg)
	return env
}

// req builds a correctly signed request from client ck with the given nonce.
func req(ck *keys.ClientKey, nonce uint64, payload string) types.Transaction {
	msg := keys.ClientRequestMessage(ck.ID, nonce, []byte(payload))
	return types.Transaction{Client: ck.ID, Nonce: nonce, Payload: []byte(payload), Sig: ck.Sign(msg)}
}

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

// TestIntakeVerifyAtCut: intake queues what it cannot refuse by bookkeeping
// alone, and the cut lets through only what verifies. An unknown client is
// the one thing Submit refuses as a bad signature.
func TestIntakeVerifyAtCut(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	m := g.cfg.Counts

	good := req(env.cks[0], 1, "v1")
	bad := req(env.cks[1], 1, "v1")
	bad.Sig[0] ^= 0xff
	for _, txn := range []types.Transaction{good, bad, bad} {
		if err := g.Submit(txn, at(0)); err != nil {
			t.Fatalf("client %d: %v", txn.Client, err)
		}
	}
	// The retransmitted bad request repeats the queued copy's bytes: absorbed.
	if g.Pending() != 2 || m.GatewayDupPending != 1 || m.GatewayVerified != 0 {
		t.Fatalf("pending %d, dup-pending %d, verified %d; want 2, 1, 0",
			g.Pending(), m.GatewayDupPending, m.GatewayVerified)
	}
	cut := g.TakeBatch(at(1), 10, true)
	if len(cut) != 1 || cut[0].Client != good.Client {
		t.Fatalf("cut %v, want the good request alone", clientsOf(cut))
	}
	if m.GatewayVerified != 1 || m.GatewayVerifyFail != 1 || m.GatewayProposed != 1 {
		t.Fatalf("verified %d, verify-fail %d, proposed %d; want 1 each",
			m.GatewayVerified, m.GatewayVerifyFail, m.GatewayProposed)
	}
	// The evicted request holds no nonce: a genuine one under it queues.
	if err := g.Submit(req(env.cks[1], 1, "v1"), at(2)); err != nil || g.Pending() != 1 {
		t.Fatalf("genuine request after an evicted forgery: err %v, pending %d", err, g.Pending())
	}
	unknown := types.Transaction{Client: 999, Nonce: 1, Payload: []byte("x"), Sig: make([]byte, 64)}
	if err := g.Submit(unknown, at(3)); err != ErrBadSignature {
		t.Fatalf("unknown client: err = %v", err)
	}
}

// TestDedupExactlyOnce is the regression test for the acceptance criterion:
// duplicate submissions within the dedup window execute exactly once — the
// in-flight duplicate is absorbed, the post-execution duplicate re-sends the
// cached reply, and only one copy ever reaches a batch.
func TestDedupExactlyOnce(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	r := req(env.cks[0], 7, "once")

	if err := g.Submit(r, at(0)); err != nil {
		t.Fatal(err)
	}
	// Duplicate while in flight (queued): absorbed, not enqueued twice.
	if err := g.Submit(r, at(1)); err != nil {
		t.Fatalf("in-flight duplicate rejected: %v", err)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending = %d after duplicate, want 1", g.Pending())
	}

	batch := g.TakeBatch(at(2), 10, true)
	if len(batch) != 1 {
		t.Fatalf("batch size = %d, want 1", len(batch))
	}
	// Duplicate while proposed-but-unexecuted: still absorbed.
	if err := g.Submit(r, at(3)); err != nil {
		t.Fatal(err)
	}
	if g.Pending() != 0 {
		t.Fatalf("duplicate of a proposed request re-entered the queue")
	}

	if fresh := g.MarkExecuted(Exec{Client: r.Client, Nonce: r.Nonce, Height: 5, Result: []byte("ok")}); !fresh {
		t.Fatal("first execution not fresh")
	}
	if fresh := g.MarkExecuted(Exec{Client: r.Client, Nonce: r.Nonce, Height: 5}); fresh {
		t.Fatal("second MarkExecuted reported fresh")
	}

	// Duplicate after execution: cached reply, no re-queue.
	if err := g.Submit(r, at(4)); err != nil {
		t.Fatal(err)
	}
	if g.Pending() != 0 {
		t.Fatal("executed duplicate re-entered the queue")
	}
	if len(env.replies) != 1 || !env.replies[0].cached || env.replies[0].height != 5 {
		t.Fatalf("cached reply = %+v, want one cached reply at height 5", env.replies)
	}
	if n := g.cfg.Counts.GatewayProposed; n != 1 {
		t.Fatalf("gateway-proposed = %d, want 1 (exactly once)", n)
	}
}

func TestDedupWindowEviction(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.DedupWindow = 2 })
	g := env.gw
	ck := env.cks[0]
	for nonce := uint64(1); nonce <= 3; nonce++ {
		r := req(ck, nonce, "w")
		if err := g.Submit(r, at(int(nonce))); err != nil {
			t.Fatal(err)
		}
		g.TakeBatch(at(int(nonce)), 10, true)
		g.MarkExecuted(Exec{Client: ck.ID, Nonce: nonce, Height: nonce})
	}
	// Nonce 1 was evicted (window=2): a retry re-enters the pipeline
	// (at-least-once beyond the window, by design).
	if err := g.Submit(req(ck, 1, "w"), at(10)); err != nil {
		t.Fatal(err)
	}
	if g.Pending() != 1 {
		t.Fatal("evicted nonce not re-admitted")
	}
	// Nonce 3 is still in the window: cached reply.
	if err := g.Submit(req(ck, 3, "w"), at(11)); err != nil {
		t.Fatal(err)
	}
	if len(env.replies) != 1 || env.replies[0].nonce != 3 {
		t.Fatalf("replies = %+v", env.replies)
	}
}

// TestDedupWindowRing: the window is a ring that evicts in execution order,
// whatever order the nonces come in (the highest-nonce shortcut must not
// answer for a nonce that was evicted or never executed).
func TestDedupWindowRing(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.DedupWindow = 3 })
	g := env.gw
	for i, nonce := range []uint64{10, 5, 7, 6, 12} {
		if !g.MarkExecuted(Exec{Client: 1, Nonce: nonce, Height: uint64(i + 1)}) {
			t.Fatalf("nonce %d not fresh", nonce)
		}
	}
	// Executed order 10 5 7 6 12, window 3: 10 and 5 are gone.
	for nonce, want := range map[uint64]bool{10: false, 5: false, 7: true, 6: true, 12: true, 8: false, 13: false, 0: false} {
		if got := g.ServeCached(1, nonce); got != want {
			t.Errorf("nonce %d cached = %v, want %v", nonce, got, want)
		}
	}
	if len(env.replies) != 3 {
		t.Fatalf("replies = %+v", env.replies)
	}
	for _, r := range env.replies {
		if want := map[uint64]uint64{7: 3, 6: 4, 12: 5}[r.nonce]; !r.cached || r.height != want {
			t.Errorf("reply %+v, want cached at height %d", r, want)
		}
	}
	if g.MarkExecuted(Exec{Client: 1, Nonce: 6, Height: 9}) {
		t.Fatal("a nonce inside the window reported fresh")
	}
	if !g.MarkExecuted(Exec{Client: 1, Nonce: 10, Height: 9}) {
		t.Fatal("an evicted nonce did not report fresh")
	}
	if n := g.cfg.Counts.GatewayExecuted; n != 6 {
		t.Fatalf("gateway-executed = %d, want 6", n)
	}
	if n := g.cfg.Counts.GatewayDedupCached; n != 3 {
		t.Fatalf("gateway-dedup-cached = %d, want 3", n)
	}
}

// TestForgedPayloadReplayRejected: a captured signature replayed with a
// DIFFERENT payload — after the original nonce aged out of the dedup window,
// so dedup no longer absorbs it — is checked over the message it arrived
// with, fails at the cut and never reaches a proposal.
func TestForgedPayloadReplayRejected(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.DedupWindow = 1 })
	g := env.gw
	ck := env.cks[0]

	genuine := req(ck, 1, "pay alice 1")
	if err := g.Submit(genuine, at(0)); err != nil {
		t.Fatal(err)
	}
	g.TakeBatch(at(0), 10, true)
	g.MarkExecuted(Exec{Client: ck.ID, Nonce: 1, Height: 1})
	// Evict nonce 1 from the window (window=1).
	if err := g.Submit(req(ck, 2, "w"), at(1)); err != nil {
		t.Fatal(err)
	}
	g.TakeBatch(at(1), 10, true)
	g.MarkExecuted(Exec{Client: ck.ID, Nonce: 2, Height: 2})

	// Replay the genuine signature over a forged payload.
	forged := genuine
	forged.Payload = []byte("pay mallory 1000000")
	if err := g.Submit(forged, at(2)); err != nil {
		t.Fatal(err)
	}
	if cut := g.TakeBatch(at(2), 10, true); len(cut) != 0 {
		t.Fatalf("forged replay cut into a proposal: %+v", cut)
	}
	if n := g.cfg.Counts.GatewayVerifyFail; n != 1 {
		t.Fatalf("gateway-verify-fail = %d, want 1", n)
	}
	// The genuine bytes re-enter and are cut (at-least-once beyond the
	// window, by design).
	if err := g.Submit(genuine, at(3)); err != nil {
		t.Fatal(err)
	}
	if cut := g.TakeBatch(at(3), 10, true); len(cut) != 1 || string(cut[0].Payload) != "pay alice 1" {
		t.Fatalf("genuine retransmission not cut: %+v", cut)
	}
}

// TestVerifyTxnsAuthenticatesBatch pins the replica-side proposal check: a
// batch with a fabricated client transaction must fail, a properly signed
// batch (with direct-injection Client==0 entries interleaved) must pass.
func TestVerifyTxnsAuthenticatesBatch(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw

	good := []types.Transaction{
		req(env.cks[0], 1, "a"),
		{Client: 0, Nonce: 7, Payload: []byte("direct")}, // no client sig
		req(env.cks[1], 1, "b"),
	}
	if !g.VerifyTxns(good) {
		t.Fatal("signed batch rejected")
	}

	// A Byzantine leader fabricates a transaction attributed to client 3.
	forged := req(env.cks[2], 1, "theirs")
	forged.Client = env.cks[3].ID
	if g.VerifyTxns([]types.Transaction{forged}) {
		t.Fatal("fabricated transaction accepted")
	}

	// Same content, tampered payload, genuine signature.
	genuine := req(env.cks[4], 5, "v1")
	tampered := genuine
	tampered.Payload = []byte("v2")
	if g.VerifyTxns([]types.Transaction{tampered}) {
		t.Fatal("tampered payload accepted")
	}
	if !g.VerifyTxns([]types.Transaction{genuine}) {
		t.Fatal("genuine transaction rejected")
	}
}

func TestAdmissionQueueBound(t *testing.T) {
	env := newEnv(t, func(c *Config) { c.QueueLimit = 2 })
	g := env.gw
	if err := g.Submit(req(env.cks[0], 1, "a"), at(0)); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(req(env.cks[1], 1, "b"), at(0)); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(req(env.cks[2], 1, "c"), at(0)); err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	// Draining the queue re-opens admission.
	g.TakeBatch(at(1), 10, true)
	if err := g.Submit(req(env.cks[2], 1, "c"), at(2)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	env := newEnv(t, func(c *Config) {
		c.RatePerClient = 10 // 10 req/s
		c.RateBurst = 2
	})
	g := env.gw
	ck := env.cks[0]
	if err := g.Submit(req(ck, 1, "x"), at(0)); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(req(ck, 2, "x"), at(0)); err != nil {
		t.Fatal(err)
	}
	if err := g.Submit(req(ck, 3, "x"), at(0)); err != ErrRateLimited {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// Another client is unaffected.
	if err := g.Submit(req(env.cks[1], 1, "y"), at(0)); err != nil {
		t.Fatalf("other client limited: %v", err)
	}
	// 100ms refills one token at 10 req/s.
	if err := g.Submit(req(ck, 3, "x"), at(100)); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestBatcherDualBound(t *testing.T) {
	env := newEnv(t, func(c *Config) {
		c.MaxBatch = 3
		c.MaxWait = 50 * time.Millisecond
	})
	g := env.gw
	g.Submit(req(env.cks[0], 1, "a"), at(0))
	g.Submit(req(env.cks[1], 1, "b"), at(0))

	// Below max-batch and below max-wait: hold.
	if b := g.TakeBatch(at(10), 3, false); b != nil {
		t.Fatalf("flushed early: %d txns", len(b))
	}
	// Size bound: a third request fills the batch.
	g.Submit(req(env.cks[2], 1, "c"), at(10))
	if b := g.TakeBatch(at(11), 3, false); len(b) != 3 {
		t.Fatalf("size-bound flush = %d txns, want 3", len(b))
	}
	// Latency bound: a lone request flushes once it ages past MaxWait.
	g.Submit(req(env.cks[3], 1, "d"), at(20))
	if b := g.TakeBatch(at(30), 3, false); b != nil {
		t.Fatal("flushed before max-wait")
	}
	if b := g.TakeBatch(at(71), 3, false); len(b) != 1 {
		t.Fatal("latency-bound flush missing")
	}
}

// TestCutDue: the dual bound's next forced cut — none on an empty queue, the
// oldest request's admission plus MaxWait on a partial one, at once (a time
// already past) on a full one — after intake, PushFront and a cut that
// leaves a remainder.
func TestCutDue(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(env *testEnv)
		due   time.Time // zero: no cut due
	}{
		{name: "empty queue", setup: func(*testEnv) {}},
		{name: "partial queue", setup: func(env *testEnv) {
			env.gw.Submit(req(env.cks[0], 1, "a"), at(5))
			env.gw.Submit(req(env.cks[1], 1, "b"), at(9))
		}, due: at(25)},
		{name: "full queue", setup: func(env *testEnv) {
			for i := 0; i < 4; i++ {
				env.gw.Submit(req(env.cks[i], 1, "a"), at(3+i))
			}
		}, due: at(3)},
		{name: "after PushFront", setup: func(env *testEnv) {
			env.gw.Submit(req(env.cks[0], 1, "a"), at(0))
			b := env.gw.TakeBatch(at(1), 4, true)
			env.gw.Submit(req(env.cks[1], 1, "b"), at(2))
			env.gw.PushFront(b, at(4))
		}, due: at(24)},
		{name: "after a cut with a remainder", setup: func(env *testEnv) {
			for i := 0; i < 6; i++ {
				env.gw.Submit(req(env.cks[i], 1, "a"), at(i))
			}
			if b := env.gw.TakeBatch(at(6), 4, false); len(b) != 4 {
				t.Fatalf("cut %d requests, want 4", len(b))
			}
		}, due: at(24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newEnv(t, nil) // MaxBatch 4, MaxWait 20 ms
			tc.setup(env)
			due, ok := env.gw.CutDue()
			if ok != !tc.due.IsZero() || !due.Equal(tc.due) {
				t.Fatalf("CutDue() = %v, %v; want %v, %v", due, ok, tc.due, !tc.due.IsZero())
			}
			if !ok {
				return
			}
			// The bound holds a partial queue back until due, and cuts any
			// queue then.
			if env.gw.Pending() < 4 {
				if b := env.gw.TakeBatch(due.Add(-time.Nanosecond), 4, false); b != nil {
					t.Fatalf("cut %d requests before the due time", len(b))
				}
			}
			if b := env.gw.TakeBatch(due, 4, false); len(b) == 0 {
				t.Fatal("nothing cut at the due time")
			}
		})
	}
}

func TestPushFrontPreservesOrder(t *testing.T) {
	env := newEnv(t, nil)
	g := env.gw
	g.Submit(req(env.cks[0], 1, "a"), at(0))
	g.Submit(req(env.cks[1], 1, "b"), at(0))
	g.Submit(req(env.cks[2], 1, "c"), at(0))
	b := g.TakeBatch(at(1), 2, true)
	if len(b) != 2 {
		t.Fatalf("batch = %d", len(b))
	}
	g.PushFront(b, at(1))
	all := g.TakeBatch(at(2), 10, true)
	if len(all) != 3 || all[0].Client != env.cks[0].ID || all[1].Client != env.cks[1].ID || all[2].Client != env.cks[2].ID {
		t.Fatalf("order after PushFront: %v", clientsOf(all))
	}
}

func clientsOf(txns []types.Transaction) []uint64 {
	out := make([]uint64, len(txns))
	for i, tx := range txns {
		out[i] = tx.Client
	}
	return out
}

func TestRequesterCertificate(t *testing.T) {
	pairs, reg, err := keys.GenerateCluster([]int{4, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRequester(RequesterConfig{
		Client: 3, Groups: 2,
		Faulty:  reg.Faulty,
		Verify:  reg.VerifyMemo,
		Timeout: 100 * time.Millisecond,
	})
	g := r.Begin(9, at(0))
	if g != int((3+9)%2) {
		t.Fatalf("initial group = %d", g)
	}

	// An OK reply is the request's leaf in a five-transaction entry's
	// receipt; a Dup reply is a one-leaf receipt of its own.
	entry := []Addressee{{Client: 1, Nonce: 4}, {Client: 2, Nonce: 8}, {Client: 3, Nonce: 9}, {Client: 5, Nonce: 1}, {Client: 7, Nonce: 2}}
	mk := func(node *keys.KeyPair, status byte, height uint64, result string) Reply {
		leaves := entry
		if status == StatusDup {
			leaves = entry[2:3]
		}
		return replyFor(t, signedReceipt(t, node, status, height, result, leaves), 3, 9)
	}
	grp := pairs[g]

	// f=1 for a 4-node group: one reply is not enough.
	if done, _ := r.OnReply(mk(grp[0], StatusOK, 5, "ok"), at(1)); done {
		t.Fatal("certified with 1 reply (f=1)")
	}
	// Bad signature ignored.
	bad := mk(grp[1], StatusOK, 5, "ok")
	bad.Sig = append([]byte(nil), bad.Sig...)
	bad.Sig[0] ^= 0xff
	if done, _ := r.OnReply(bad, at(2)); done {
		t.Fatal("certified via bad signature")
	}
	// Mismatching result doesn't stack with the first reply.
	if done, _ := r.OnReply(mk(grp[1], StatusOK, 5, "forged"), at(3)); done {
		t.Fatal("certified across mismatched results")
	}
	// Duplicate signer doesn't count twice.
	if done, _ := r.OnReply(mk(grp[0], StatusOK, 5, "ok"), at(4)); done {
		t.Fatal("same signer counted twice")
	}
	// A matching Dup-status reply from a second node completes f+1.
	done, res := r.OnReply(mk(grp[2], StatusDup, 5, "ok"), at(5))
	if !done {
		t.Fatal("not certified with f+1 matching replies")
	}
	if res.Height != 5 || string(res.Result) != "ok" || res.Replies != 2 || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	if r.Active() {
		t.Fatal("requester still active after certificate")
	}
}

func TestRequesterResubmission(t *testing.T) {
	_, reg, err := keys.GenerateCluster([]int{4, 4, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRequester(RequesterConfig{
		Client: 1, Groups: 3,
		Faulty: reg.Faulty, Verify: reg.VerifyMemo,
		Timeout: 100 * time.Millisecond, MaxAttempts: 3,
	})
	g0 := r.Begin(1, at(0))
	if re, _, _ := r.OnTick(at(50)); re {
		t.Fatal("resubmitted before the deadline")
	}
	re, g1, gave := r.OnTick(at(100))
	if !re || gave {
		t.Fatal("no resubmission at the deadline")
	}
	if g1 != (g0+1)%3 {
		t.Fatalf("rotation: %d -> %d", g0, g1)
	}
	// Back-off doubles: the second attempt waits 200 ms, the third 400 ms.
	if re, _, _ := r.OnTick(at(299)); re {
		t.Fatal("resubmitted before the doubled deadline")
	}
	r.OnTick(at(300)) // attempt 3
	if _, _, gave = r.OnTick(at(699)); gave {
		t.Fatal("gave up before the third attempt's deadline")
	}
	_, _, gave = r.OnTick(at(700))
	if !gave {
		t.Fatal("no give-up after MaxAttempts")
	}
	if r.Active() {
		t.Fatal("active after give-up")
	}
}

// TestRequesterDownOracle checks that submission and resubmission rotation
// skip groups the Down oracle reports unable to answer, and fall back to
// plain rotation when everything reads down.
func TestRequesterDownOracle(t *testing.T) {
	_, reg, err := keys.GenerateCluster([]int{4, 4, 4, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	down := map[int]bool{2: true}
	r := NewRequester(RequesterConfig{
		Client: 1, Groups: 4,
		Faulty: reg.Faulty, Verify: reg.Verify,
		Timeout: 100 * time.Millisecond, MaxAttempts: 8,
		Down: func(g int) bool { return down[g] },
	})
	// (Client+nonce)%Groups = 2 is down; Begin skips to 3.
	if g := r.Begin(1, at(0)); g != 3 {
		t.Fatalf("Begin targeted %d, want the first up group 3", g)
	}
	// Rotation wraps 3 -> 0 -> 1, then skips the dead 2 straight to 3; the
	// deadlines are 100 ms, then 200 and 400 ms later.
	for i, want := range []int{0, 1, 3} {
		re, g, gave := r.OnTick(at([]int{100, 300, 700}[i]))
		if !re || gave {
			t.Fatalf("rotation %d did not resubmit", i)
		}
		if g != want {
			t.Fatalf("rotation %d targeted %d, want %d", i, g, want)
		}
	}
	// With every group down the oracle is clearly wrong; rotation degrades
	// to plain round-robin rather than spinning or stalling.
	for g := 0; g < 4; g++ {
		down[g] = true
	}
	if g := r.Begin(2, at(1000)); g != 3 {
		t.Fatalf("all-down Begin targeted %d, want the hash group 3", g)
	}
	if re, g, _ := r.OnTick(at(1100)); !re || g != 0 {
		t.Fatalf("all-down rotation targeted %d, want plain successor 0", g)
	}
}
