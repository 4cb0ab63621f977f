// Package gateway is the client-serving front end that runs on every node:
// it turns raw signed client requests into certified, executed replies.
//
// The pipeline (DESIGN.md §10):
//
//	client ──ClientRequest──▶ intake ──verify──▶ dedup/admission ──▶ FIFO
//	                                                                  │
//	     proposer batchTick ◀── TakeBatch (flush on max-batch/max-wait)┘
//	                                                                  │
//	client ◀──f+1 signed receipts── execute ──Executed────────────────┘
//
// Intake verifies Ed25519 client signatures inline on the owning event loop,
// on both fabrics, with a bounded content-keyed memo so retransmitted
// requests never pay the signature check twice. Per-client
// sequence numbers with a bounded dedup window make retries idempotent:
// a duplicate of an executed request re-sends the cached reply without
// re-executing; a duplicate of an in-flight request is absorbed. Replies are
// execution receipts (receipt.go): an origin-group node signs once per
// executed entry, over a Merkle root of the entry's (client, nonce) pairs,
// and each client checks its own path and that one signature. Admission
// control is explicit: a bounded intake queue rejects with ErrOverloaded and
// per-client token buckets reject with ErrRateLimited, so overload degrades
// into fast rejections instead of unbounded queue growth.
//
// A Gateway is NOT safe for concurrent use: every method must run on the
// owning node's event loop. It starts no goroutine of its own.
package gateway

import (
	"errors"
	"time"

	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// Admission and verification errors returned by Submit.
var (
	// ErrOverloaded: the bounded intake queue is full. The client should
	// back off and retry, possibly to another node.
	ErrOverloaded = errors.New("gateway: overloaded, intake queue full")
	// ErrRateLimited: the per-client token bucket is empty.
	ErrRateLimited = errors.New("gateway: client rate limit exceeded")
	// ErrBadSignature: the client signature failed verification, or the
	// client ID is unknown (both counted as gateway-verify-fail).
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
	// the oldest pending request has waited this long.
	MaxWait time.Duration
	// QueueLimit bounds the verified FIFO. 0 means 4096.
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
	// Metrics receives gateway-* counters; may be nil.
	Metrics *metrics.Collector
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
	pending map[uint64]struct{}
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

// memoKey identifies a verified request by content, mirroring the
// certificate memo: same client, nonce, signed message (which covers the
// payload), and signature — a tampered retransmission never hits a cached
// verdict. Binding the message hash matters: keying on the signature alone
// would let a captured signature replay with a different payload once its
// nonce ages out of the dedup window, turning a cached ok verdict into an
// unverified forgery.
type memoKey struct {
	client, nonce    uint64
	msgHash, sigHash keys.Digest
}

// queued is one verified request waiting for the batcher.
type queued struct {
	txn types.Transaction
	at  time.Time
}

// Gateway is one node's client front end. See the package comment for the
// threading contract.
type Gateway struct {
	cfg     Config
	q       []queued
	clients map[uint64]*clientState
	memo    map[memoKey]bool
	rcpt    receiptScratch
	// VerifyTxns scratch: the signatures of the proposal under validation
	// and their signed messages, laid end to end.
	batch *keys.ClientBatch
	msgs  []byte
}

const (
	defaultQueueLimit  = 4096
	defaultDedupWindow = 64
	defaultRateBurst   = 16
	memoLimit          = 4096
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
	return &Gateway{
		cfg:     cfg,
		clients: make(map[uint64]*clientState),
		memo:    make(map[memoKey]bool),
		batch:   cfg.Clients.NewBatch(),
	}
}

func (g *Gateway) inc(name string) {
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Inc(name)
	}
}

func (g *Gateway) add(name string, v int64) {
	if g.cfg.Metrics != nil {
		g.cfg.Metrics.Add(name, v)
	}
}

func (g *Gateway) client(id uint64) *clientState {
	cs := g.clients[id]
	if cs == nil {
		cs = &clientState{
			pending: make(map[uint64]struct{}),
			tokens:  float64(g.cfg.RateBurst),
		}
		g.clients[id] = cs
	}
	return cs
}

// Submit runs intake for one raw client request: dedup, admission control,
// signature verification, enqueue. Must run on the owning event loop.
//
// Returns nil when the request was absorbed — freshly enqueued, a duplicate
// of an in-flight request, or a dedup-window hit (which re-sends the cached
// reply via Config.Reply).
func (g *Gateway) Submit(txn types.Transaction, now time.Time) error {
	g.inc("gateway-submitted")
	// A request under an id the registry does not hold can only fail
	// verification: refuse it before it costs any per-client state.
	if !g.cfg.Clients.Known(txn.Client) {
		g.inc("gateway-verify-fail")
		return ErrBadSignature
	}
	cs := g.client(txn.Client)

	// Dedup before admission: retries of executed or in-flight requests must
	// not consume queue space or tokens.
	if g.ServeCached(txn.Client, txn.Nonce) {
		return nil
	}
	if _, ok := cs.pending[txn.Nonce]; ok {
		g.inc("gateway-dup-pending")
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
			g.inc("gateway-rejected-rate")
			return ErrRateLimited
		}
		cs.tokens--
	}

	// Bounded intake.
	if len(g.q) >= g.cfg.QueueLimit {
		g.inc("gateway-rejected-overload")
		return ErrOverloaded
	}

	// Signature memo: a retransmission of the exact same signed request
	// skips the crypto entirely.
	msg := keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload)
	key := memoKeyFor(txn, msg)
	if ok, hit := g.memo[key]; hit {
		g.inc("gateway-memo-hit")
		if !ok {
			return ErrBadSignature
		}
		g.enqueue(txn, now)
		return nil
	}

	ok := g.cfg.Clients.Verify(txn.Client, msg, txn.Sig)
	g.memoPut(key, ok)
	if !ok {
		g.inc("gateway-verify-fail")
		return ErrBadSignature
	}
	g.inc("gateway-verified")
	g.enqueue(txn, now)
	return nil
}

// memoKeyFor builds the memo key binding a request's full signed content:
// msg must be keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload).
func memoKeyFor(txn types.Transaction, msg []byte) memoKey {
	return memoKey{
		client: txn.Client, nonce: txn.Nonce,
		msgHash: keys.Hash(msg), sigHash: keys.Hash(txn.Sig),
	}
}

// VerifyTxns authenticates the client signatures embedded in a proposed
// batch. Replicas call it on local pre-prepare receipt (DESIGN.md §10):
// without this re-check, a Byzantine local leader could fabricate
// transactions attributed to any client and have the group certify them —
// intake verification only binds the leader that admitted the request.
// Direct-injection transactions (Client == 0) carry no client signature and
// are skipped.
//
// Every signature it cannot skip goes through one batch equation, whatever
// their number; a failed batch is the verdict. The verification memo is
// consulted read-only, and only for what it has accepted: the proposing
// leader verified these at intake, so it skips them; followers pay the
// crypto. A remembered failure does not decide anything — the signature joins
// the batch like a miss — so the verdict is a function of the proposal alone,
// never of what this gateway's memo happens to hold (a remembered success is
// sound to skip: whatever intake accepts, the batch equation accepts). The
// memo is never populated here, so proposal validation cannot perturb its
// occupancy or eviction timing.
func (g *Gateway) VerifyTxns(txns []types.Transaction) bool {
	g.batch.Reset()
	g.msgs = g.msgs[:0]
	for i := range txns {
		t := &txns[i]
		if t.Client == 0 {
			continue
		}
		// A grown buffer moves; the messages already queued keep the bytes
		// they were cut from.
		start := len(g.msgs)
		g.msgs = keys.AppendClientRequestMessage(g.msgs, t.Client, t.Nonce, t.Payload)
		msg := g.msgs[start:]
		if len(g.memo) > 0 && g.memo[memoKeyFor(*t, msg)] {
			g.msgs = g.msgs[:start]
			continue
		}
		if !g.batch.Add(t.Client, msg, t.Sig) {
			return false
		}
	}
	return g.batch.Verify()
}

// memoPut records a verification verdict, bounded drop-and-restart like the
// certificate memo.
func (g *Gateway) memoPut(key memoKey, ok bool) {
	if len(g.memo) >= memoLimit {
		g.memo = make(map[memoKey]bool, memoLimit/4)
	}
	g.memo[key] = ok
}

func (g *Gateway) enqueue(txn types.Transaction, at time.Time) {
	g.client(txn.Client).pending[txn.Nonce] = struct{}{}
	g.q = append(g.q, queued{txn: txn, at: at})
	g.inc("gateway-enqueued")
	if g.cfg.Metrics != nil && int64(len(g.q)) > g.cfg.Metrics.Counter("gateway-queue-peak") {
		g.cfg.Metrics.Set("gateway-queue-peak", int64(len(g.q)))
	}
}

// Pending returns the number of verified requests awaiting a batch.
func (g *Gateway) Pending() int { return len(g.q) }

// TakeBatch cuts up to max requests for a proposal under the latency/size
// dual bound: it returns a batch when max (or Config.MaxBatch, whichever is
// smaller) requests are pending, when the oldest pending request has waited
// MaxWait, or when force is set (draining); otherwise it holds the partial
// batch back and returns nil.
func (g *Gateway) TakeBatch(now time.Time, max int, force bool) []types.Transaction {
	if len(g.q) == 0 {
		return nil
	}
	if g.cfg.MaxBatch > 0 && max > g.cfg.MaxBatch {
		max = g.cfg.MaxBatch
	}
	if max <= 0 {
		max = len(g.q)
	}
	if !force && len(g.q) < max && now.Sub(g.q[0].at) < g.cfg.MaxWait {
		return nil
	}
	n := len(g.q)
	if n > max {
		n = max
	}
	out := make([]types.Transaction, n)
	for i := 0; i < n; i++ {
		out[i] = g.q[i].txn
	}
	g.q = append(g.q[:0], g.q[n:]...)
	g.add("gateway-proposed", int64(n))
	return out
}

// PushFront returns txns to the head of the queue after a failed proposal so
// they are retried in order rather than lost.
func (g *Gateway) PushFront(txns []types.Transaction, at time.Time) {
	if len(txns) == 0 {
		return
	}
	head := make([]queued, 0, len(txns)+len(g.q))
	for _, t := range txns {
		head = append(head, queued{txn: t, at: at})
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
	g.inc("gateway-dedup-cached")
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
	delete(cs.pending, e.Nonce)
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
	g.inc("gateway-executed")
	return true
}
