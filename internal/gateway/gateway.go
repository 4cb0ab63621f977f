// Package gateway is the client-serving front end that runs on every node:
// it turns raw signed client requests into certified, executed replies.
//
// The pipeline (DESIGN.md §10):
//
//	client ──ClientRequest──▶ intake ──▶ FIFO ──▶ cut (verify) ──▶ proposer
//	                    (dedup, admission)     TakeBatch: max-batch/max-wait
//	                                                                  │
//	client ◀──f+1 signed receipts── execute ◀──Executed───────────────┘
//
// The cut is event-driven: CutDue reports when the dual bound next forces
// one — at once when MaxBatch requests are queued, else when the oldest has
// waited MaxWait — and the owning node keeps one deadline armed for it, so a
// request waits at most MaxWait at the leader while its pipeline has room.
//
// Intake only keeps the books; the cut verifies. TakeBatch puts the Ed25519
// client signatures of the requests it is about to propose through one batch
// equation — the one every follower checks the proposal with (VerifyTxns) —
// and evicts what fails. Per-client sequence numbers with a bounded dedup
// window make retries idempotent: a duplicate of an executed request
// re-sends the cached reply without re-executing; a duplicate of an
// in-flight request is absorbed. Replies are execution receipts
// (receipt.go): an origin-group node signs once per executed entry, over a
// Merkle root of the entry's (client, nonce) pairs, and each client checks
// its own path and that one signature. Admission control is explicit: a
// bounded intake queue rejects with ErrOverloaded and per-client token
// buckets reject with ErrRateLimited, so overload degrades into fast
// rejections instead of unbounded queue growth.
//
// A Gateway is NOT safe for concurrent use: every method must run on the
// owning node's event loop. It starts no goroutine of its own.
package gateway

import (
	"bytes"
	"errors"
	"time"

	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// Admission errors returned by Submit.
var (
	// ErrOverloaded: the bounded intake queue is full. The client should
	// back off and retry, possibly to another node.
	ErrOverloaded = errors.New("gateway: overloaded, intake queue full")
	// ErrRateLimited: the per-client token bucket is empty.
	ErrRateLimited = errors.New("gateway: client rate limit exceeded")
	// ErrBadSignature: the client ID is unknown (gateway-verify-fail, as is a
	// bad signature under a known ID, which the cut evicts).
	ErrBadSignature = errors.New("gateway: bad client signature")
)

// Config parameterizes a Gateway.
type Config struct {
	// Group is the group this gateway's node belongs to.
	Group int
	// MaxBatch is the proposal size bound: TakeBatch flushes once this many
	// requests are pending regardless of age.
	MaxBatch int
	// MaxWait is the latency bound: TakeBatch flushes a partial batch once
	// the oldest pending request has waited this long. CutDue names that
	// instant, so a proposer that arms a deadline for it holds a request at
	// most this long.
	MaxWait time.Duration
	// QueueLimit bounds the intake FIFO. 0 means 4096.
	QueueLimit int
	// DedupWindow is the per-client count of executed requests remembered
	// for idempotent retries. 0 means 64.
	DedupWindow int
	// RatePerClient is the per-client token-bucket refill rate in requests
	// per second; 0 disables rate limiting.
	RatePerClient float64
	// RateBurst is the bucket capacity; 0 means 16 (when rate limiting is on).
	RateBurst int
	// Clients authenticates request signatures.
	Clients *keys.ClientRegistry
	// Reply emits one receipt — an executed entry's, or a dedup-window
	// answer's — toward the clients it names; the owner signs it once and
	// routes one reply per addressee. The receipt is only valid during the
	// call.
	Reply func(rc *Receipt)
	// Counts receives the gateway-* counters; nil gives the gateway counts
	// of its own.
	Counts *metrics.Counts
}

// execSlot is one remembered execution inside the dedup window.
type execSlot struct {
	nonce, height uint64
	result        []byte
}

// clientState tracks one client's sequencing, dedup window, and token bucket.
type clientState struct {
	// pending holds nonces accepted into the pipeline (queued or already cut
	// into a proposal) but not yet executed.
	pending map[uint64]inflight
	// window is the bounded executed window: it grows to Config.DedupWindow
	// slots and is a ring from then on, next being the oldest slot, the one
	// the next execution overwrites (0 while the window is still growing).
	// highest is the largest nonce ever executed: a client counts upwards, so
	// a nonce above it — every fresh execution — is known absent without a
	// scan.
	window  []execSlot
	next    int
	highest uint64
	// token bucket
	tokens float64
	last   time.Time
}

// inflight is one pending nonce of a client. payload and sig are its first
// queued copy: a copy with the same bytes is a retransmission, absorbed; one
// with other bytes queues as a rival until a cut takes a copy (cut), so a
// forgery that arrives first cannot squat an honest request's nonce. queued
// counts the copies no cut has checked; executed marks a taken copy that
// executed while others queued, the entry going with the last of them.
type inflight struct {
	payload, sig  []byte
	queued        int
	cut, executed bool
}

// queued is one request waiting for the batcher. taken: an earlier cut
// verified and took it (PushFront returns only such). For the others, the
// current cut's signed message and verdict.
type queued struct {
	txn       types.Transaction
	at        time.Time
	taken, ok bool
	msg       []byte
}

// Gateway is one node's client front end. See the package comment for the
// threading contract.
type Gateway struct {
	cfg     Config
	q       []queued
	clients map[uint64]*clientState
	rcpt    receiptScratch
	// Verification scratch for a cut or a proposal: the signatures and their
	// signed messages, laid end to end.
	batch  *keys.ClientBatch
	msgs   []byte
	single bool // a cut's equation failed: check alone until a cut is clean
}

const (
	defaultQueueLimit  = 4096
	defaultDedupWindow = 64
	defaultRateBurst   = 16
)

// New builds a Gateway.
func New(cfg Config) *Gateway {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = defaultQueueLimit
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = defaultDedupWindow
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = defaultRateBurst
	}
	if cfg.Counts == nil {
		cfg.Counts = new(metrics.Counts)
	}
	return &Gateway{
		cfg:     cfg,
		clients: make(map[uint64]*clientState),
		batch:   cfg.Clients.NewBatch(),
	}
}

func (g *Gateway) client(id uint64) *clientState {
	cs := g.clients[id]
	if cs == nil {
		cs = &clientState{
			pending: make(map[uint64]inflight),
			tokens:  float64(g.cfg.RateBurst),
		}
		g.clients[id] = cs
	}
	return cs
}

// Submit runs intake for one raw client request: dedup, admission control,
// enqueue. The signature is checked when TakeBatch cuts the request. Must run
// on the owning event loop.
//
// Returns nil when the request was absorbed — freshly enqueued, a duplicate
// of an in-flight request, or a dedup-window hit (which re-sends the cached
// reply via Config.Reply).
func (g *Gateway) Submit(txn types.Transaction, now time.Time) error {
	g.cfg.Counts.GatewaySubmitted++
	// A request under an id the registry does not hold can only fail
	// verification: refuse it before it costs any per-client state.
	if !g.cfg.Clients.Known(txn.Client) {
		g.cfg.Counts.GatewayVerifyFail++
		return ErrBadSignature
	}
	cs := g.client(txn.Client)

	// Dedup before admission: retries of executed or in-flight requests must
	// not consume queue space or tokens. Ed25519 signing is deterministic, so
	// an honest retransmission repeats the first copy's bytes.
	if g.ServeCached(txn.Client, txn.Nonce) {
		return nil
	}
	p, ok := cs.pending[txn.Nonce]
	if ok && (p.cut || bytes.Equal(p.sig, txn.Sig) && bytes.Equal(p.payload, txn.Payload)) {
		g.cfg.Counts.GatewayDupPending++
		return nil
	}

	// Token bucket.
	if g.cfg.RatePerClient > 0 {
		if !cs.last.IsZero() {
			cs.tokens += now.Sub(cs.last).Seconds() * g.cfg.RatePerClient
			if max := float64(g.cfg.RateBurst); cs.tokens > max {
				cs.tokens = max
			}
		}
		cs.last = now
		if cs.tokens < 1 {
			g.cfg.Counts.GatewayRejectedRate++
			return ErrRateLimited
		}
		cs.tokens--
	}

	// Bounded intake.
	if len(g.q) >= g.cfg.QueueLimit {
		g.cfg.Counts.GatewayRejectedOverload++
		return ErrOverloaded
	}

	if !ok {
		p = inflight{payload: txn.Payload, sig: txn.Sig}
	}
	p.queued++
	cs.pending[txn.Nonce] = p
	g.q = append(g.q, queued{txn: txn, at: now})
	g.cfg.Counts.GatewayEnqueued++
	g.cfg.Counts.GatewayQueuePeak = max(g.cfg.Counts.GatewayQueuePeak, int64(len(g.q)))
	return nil
}

// VerifyTxns authenticates the client signatures embedded in a proposed
// batch. Replicas call it on local pre-prepare receipt (DESIGN.md §10):
// without this re-check, a Byzantine local leader could fabricate
// transactions attributed to any client and have the group certify them —
// the cut's check only binds the leader that made it. Direct-injection
// transactions (Client == 0) carry no client signature and are skipped.
//
// Every other signature goes through one batch equation, whatever their
// number — the equation TakeBatch checks a cut with — and a failed batch is
// the verdict, a function of the proposal alone.
func (g *Gateway) VerifyTxns(txns []types.Transaction) bool {
	g.batch.Reset()
	g.msgs = g.msgs[:0]
	for i := range txns {
		if t := &txns[i]; t.Client != 0 {
			if _, ok := g.stage(t); !ok {
				return false
			}
		}
	}
	return g.batch.Verify()
}

// stage lays t's signed message into the arena (a grown arena moves; queued
// messages keep their bytes) and adds its signature to the batch.
func (g *Gateway) stage(t *types.Transaction) ([]byte, bool) {
	start := len(g.msgs)
	g.msgs = keys.AppendClientRequestMessage(g.msgs, t.Client, t.Nonce, t.Payload)
	msg := g.msgs[start:]
	return msg, g.batch.Add(t.Client, msg, t.Sig)
}

// Pending returns the number of requests awaiting a batch.
func (g *Gateway) Pending() int { return len(g.q) }

// CutDue reports when the dual bound next forces a cut, or false on an empty
// queue: at once when MaxBatch requests are queued (the returned time, the
// oldest request's admission, is past), else when the oldest request has
// waited MaxWait. The owner keeps a deadline armed for it, so a request waits
// at most MaxWait for its cut while the proposer can take one.
func (g *Gateway) CutDue() (time.Time, bool) {
	if len(g.q) == 0 {
		return time.Time{}, false
	}
	if g.cfg.MaxBatch > 0 && len(g.q) >= g.cfg.MaxBatch {
		return g.q[0].at, true
	}
	return g.q[0].at.Add(g.cfg.MaxWait), true
}

// TakeBatch cuts up to size requests for a proposal under the latency/size
// dual bound: it cuts when size (or Config.MaxBatch, whichever is smaller)
// requests are pending, when the oldest pending request has waited MaxWait,
// or when force is set (draining); otherwise it holds the partial batch back
// and returns nil. The owner calls it at CutDue's time, not on a poll. It
// returns the cut's requests whose signatures verify, one copy of a nonce:
// bad ones are evicted (gateway-verify-fail), copies of a nonce already taken
// dropped (gateway-dup-pending).
func (g *Gateway) TakeBatch(now time.Time, size int, force bool) []types.Transaction {
	if len(g.q) == 0 {
		return nil
	}
	if g.cfg.MaxBatch > 0 && size > g.cfg.MaxBatch {
		size = g.cfg.MaxBatch
	}
	if size <= 0 {
		size = len(g.q)
	}
	if !force && len(g.q) < size && now.Sub(g.q[0].at) < g.cfg.MaxWait {
		return nil
	}
	cut := g.q[:min(len(g.q), size)]
	g.verifyCut(cut)
	out := make([]types.Transaction, 0, len(cut))
	for i := range cut {
		q := &cut[i]
		if q.taken {
			out = append(out, q.txn)
			continue
		}
		// The entry is absent when the nonce executed elsewhere while this
		// copy queued; the copy is then proposed like any other.
		cs := g.clients[q.txn.Client]
		p := cs.pending[q.txn.Nonce]
		p.queued = max(p.queued-1, 0)
		switch {
		case p.cut:
			g.cfg.Counts.GatewayDupPending++
		case q.ok:
			p.cut = true
			g.cfg.Counts.GatewayVerified++
			out = append(out, q.txn)
		default:
			g.cfg.Counts.GatewayVerifyFail++
		}
		if p.queued == 0 && (!p.cut || p.executed) {
			delete(cs.pending, q.txn.Nonce)
		} else {
			cs.pending[q.txn.Nonce] = p
		}
	}
	g.q = append(g.q[:0], g.q[len(cut):]...)
	g.cfg.Counts.GatewayProposed += int64(len(out))
	return out
}

// verifyCut sets ok on each request of cut no earlier cut took: one batch
// equation for all (DESIGN.md §10). A failed equation does not name the
// culprit, so each is then checked alone — a one-signature batch, the same
// equation — as in every later cut until one comes back clean: a poisoned
// cut of n costs n + n, and under a flood a request costs one single check.
func (g *Gateway) verifyCut(cut []queued) {
	g.batch.Reset()
	g.msgs = g.msgs[:0]
	for i := range cut {
		if q := &cut[i]; !q.taken {
			q.msg, q.ok = g.stage(&q.txn)
		}
	}
	if !g.single && g.batch.Verify() {
		return
	}
	clean := true
	for i := range cut {
		if q := &cut[i]; !q.taken && q.ok {
			g.batch.Reset()
			g.batch.Add(q.txn.Client, q.msg, q.txn.Sig) // accepted above
			q.ok = g.batch.Verify()
			clean = clean && q.ok
		}
	}
	g.single = !clean
}

// PushFront returns txns, which TakeBatch cut, to the head of the queue after
// a failed proposal so they are retried in order rather than lost, and not
// verified a second time.
func (g *Gateway) PushFront(txns []types.Transaction, at time.Time) {
	if len(txns) == 0 {
		return
	}
	head := make([]queued, 0, len(txns)+len(g.q))
	for _, t := range txns {
		head = append(head, queued{txn: t, at: at, taken: true})
	}
	g.q = append(head, g.q...)
}

// Exec is one executed client transaction reported by the state machine.
type Exec struct {
	Client, Nonce uint64
	Height        uint64
	Result        []byte
}

// lookup returns the window slot remembering nonce, newest first (a retry
// asks for the client's latest request).
func (cs *clientState) lookup(nonce uint64) *execSlot {
	if nonce > cs.highest {
		return nil
	}
	for i, at := 0, cs.next; i < len(cs.window); i++ {
		if at--; at < 0 {
			at = len(cs.window) - 1
		}
		if cs.window[at].nonce == nonce {
			return &cs.window[at]
		}
	}
	return nil
}

// ServeCached re-sends the cached reply when (client, nonce) sits inside the
// executed dedup window, reporting whether it hit. Any group member can
// serve it — every node's window fills at execution — which is how a
// retransmitted request collects f+1 StatusDup receipts without
// re-executing.
func (g *Gateway) ServeCached(client, nonce uint64) bool {
	cs := g.clients[client]
	if cs == nil {
		return false
	}
	slot := cs.lookup(nonce)
	if slot == nil {
		return false
	}
	g.cfg.Counts.GatewayDedupCached++
	if g.cfg.Reply != nil {
		g.rcpt.begin()
		g.rcpt.add(client, nonce, true)
		g.cfg.Reply(g.rcpt.receipt(StatusDup, slot.height, slot.result))
	}
	return true
}

// Executed records one executed entry's client transactions (Client == 0
// marks direct injection: no client, no reply) in the dedup window. Every
// node calls it for every entry, so any of them can answer a retry; on a
// node of the entry's own group (origin) it also emits the entry's receipt
// through Config.Reply, addressed to the transactions this node executed for
// the first time, in entry order.
func (g *Gateway) Executed(txns []types.Transaction, height uint64, result []byte, origin bool) {
	reply := origin && g.cfg.Reply != nil
	if reply {
		g.rcpt.begin()
	}
	for i := range txns {
		t := &txns[i]
		if t.Client == 0 {
			continue
		}
		fresh := g.MarkExecuted(Exec{Client: t.Client, Nonce: t.Nonce, Height: height, Result: result})
		if reply {
			g.rcpt.add(t.Client, t.Nonce, fresh)
		}
	}
	if reply && len(g.rcpt.to) > 0 {
		g.cfg.Reply(g.rcpt.receipt(StatusOK, height, result))
	}
}

// MarkExecuted records an execution in the dedup window and reports whether
// this was the first time.
func (g *Gateway) MarkExecuted(e Exec) (fresh bool) {
	cs := g.client(e.Client)
	if p := cs.pending[e.Nonce]; p.cut && p.queued > 0 {
		p.executed = true // copies still queued: the cut drops them
		cs.pending[e.Nonce] = p
	} else {
		delete(cs.pending, e.Nonce)
	}
	if cs.lookup(e.Nonce) != nil {
		return false
	}
	slot := execSlot{nonce: e.Nonce, height: e.Height, result: e.Result}
	if len(cs.window) < g.cfg.DedupWindow {
		cs.window = append(cs.window, slot)
	} else {
		cs.window[cs.next] = slot
		cs.next = (cs.next + 1) % len(cs.window)
	}
	cs.highest = max(cs.highest, e.Nonce)
	g.cfg.Counts.GatewayExecuted++
	return true
}
