package gateway

import (
	"bytes"
	"time"

	"massbft/internal/keys"
	"massbft/internal/merkle"
)

// Reply is a transport-neutral view of one node's answer to one client
// transaction (the cluster layer's ClientReply): the node's receipt
// signature plus this transaction's place in the receipt's tree. Sig covers
// keys.ReceiptMessage(Status, GID, Height, Result, root, Leaves) where root
// is what Path commits (Client, Nonce) to as leaf Index of Leaves.
type Reply struct {
	Client, Nonce uint64
	Status        byte
	GID           int
	Height        uint64
	Result        []byte
	Leaves, Index int
	Path          [][merkle.HashSize]byte
	Signer        keys.NodeID
	Sig           []byte
}

// Reply status codes, mirroring the cluster wire constants (the gateway
// package cannot import cluster).
const (
	StatusOK  byte = 1
	StatusDup byte = 2
)

// RequesterConfig parameterizes the reply-certificate state machine.
type RequesterConfig struct {
	// Client is the client ID replies must be addressed to.
	Client uint64
	// Groups is the number of groups available for submission.
	Groups int
	// Faulty returns f for a group (keys.Registry.Faulty).
	Faulty func(group int) int
	// Verify checks a node's receipt signature. A client process passes
	// keys.Registry.VerifyMemo of the one registry all its clients share: an
	// entry's clients all check the same (signer, message, signature).
	Verify func(signer keys.NodeID, msg, sig []byte) bool
	// Timeout is how long the first attempt waits for f+1 matching replies
	// before resubmitting to another group. Each resubmission doubles the
	// wait (capped at 8x Timeout), so an overloaded cluster sees retry
	// pressure decay instead of synchronized retry waves.
	Timeout time.Duration
	// MaxAttempts bounds submission attempts per request; 0 means 2×Groups.
	MaxAttempts int
	// Down, when set, reports groups certified unable to answer (dead,
	// departed, or not yet joined). Submission and resubmission rotation
	// skip them instead of burning a full attempt timeout on a group that
	// can never certify a reply. Liveness is preserved even if Down is
	// wrong about a group: skipping only reorders the rotation, and when
	// every group reads down the rotation falls back to plain round-robin.
	Down func(group int) bool
	// Jitter desynchronizes resubmission deadlines: each attempt's wait is
	// stretched by up to +25%, derived deterministically from (client,
	// nonce, attempt) so simulation runs stay reproducible while clients
	// that timed out together do not retry in lockstep.
	Jitter bool
}

// Result is an accepted, f+1-certified execution outcome.
type Result struct {
	Status   byte
	GID      int
	Height   uint64
	Result   []byte
	Replies  int // matching replies collected (≥ f+1 of the certifying group)
	Attempts int // submission attempts used (1 = no resubmission)
}

// Requester is the client library's reply-certificate state machine for ONE
// in-flight request (closed-loop clients hold one). It is transport-neutral
// and single-threaded: the sim hub drives it from the event loop, the TCP
// client from its receive loop.
//
// Acceptance rule: f+1 replies from DISTINCT nodes of one group, each with a
// valid signature over a root its path commits this request to, matching on
// (GID, Height, Result) — with status OK or Dup (a cached-window reply
// attests the same execution, over a one-leaf tree of its own, so roots are
// not compared). f+1 guarantees at least one honest node vouches for the
// result. On Timeout without a certificate the requester rotates to the next
// group (at-least-once across groups: the new group's dedup window has never
// seen the nonce, so the request may execute again — see DESIGN.md §10).
type Requester struct {
	cfg RequesterConfig

	active   bool
	nonce    uint64
	group    int // current attempt's target group
	attempts int
	deadline time.Time

	// cands[:ncand] are the outcomes attested so far; the slice, its signer
	// lists and msg are kept from request to request, so a request allocates
	// nothing once they have grown.
	cands []candidate
	ncand int
	msg   []byte
}

// candidate is one (GID, Height, Result) with the distinct signers attesting
// it. status is the first attesting reply's.
type candidate struct {
	status  byte
	gid     int
	height  uint64
	result  []byte
	signers []keys.NodeID
}

func (c *candidate) matches(rep *Reply) bool {
	return c.gid == rep.GID && c.height == rep.Height && bytes.Equal(c.result, rep.Result)
}

func (c *candidate) signed(id keys.NodeID) bool {
	for _, s := range c.signers {
		if s == id {
			return true
		}
	}
	return false
}

// NewRequester builds an idle requester.
func NewRequester(cfg RequesterConfig) *Requester {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 2 * cfg.Groups
	}
	return &Requester{cfg: cfg}
}

// FirstTarget is the submission policy both fabrics' clients share: a
// request's first attempt goes to choice (client+nonce) mod n — of the n
// groups, then of the target group's n members, which forwards to its leader
// (the classic PBFT client optimization: steady-state traffic stays linear) —
// so load spreads and a retry of the same nonce starts from the same place.
// Retransmissions broadcast to the whole group: a retry needs f+1 members
// answering, and while fresh replies come from execution on every member,
// cached dedup-window replies come only from members that saw the request.
func FirstTarget(client, nonce uint64, n int) int { return int((client + nonce) % uint64(n)) }

// Begin starts a new request attempt sequence for nonce and returns the
// group to submit to.
func (r *Requester) Begin(nonce uint64, now time.Time) (group int) {
	r.nonce = nonce
	r.attempts = 1
	r.group = r.nextUp(FirstTarget(r.cfg.Client, nonce, r.cfg.Groups))
	r.deadline = now.Add(r.cfg.Timeout)
	r.active, r.ncand = true, 0
	return r.group
}

// nextUp returns the first group at or after g (cyclically) not reported
// down; g itself when no Down oracle is set or everything reads down.
func (r *Requester) nextUp(g int) int {
	if r.cfg.Down == nil {
		return g
	}
	for i := 0; i < r.cfg.Groups; i++ {
		c := (g + i) % r.cfg.Groups
		if !r.cfg.Down(c) {
			return c
		}
	}
	return g
}

// OnReply feeds one received reply. Returns done=true with the certified
// result once f+1 matching valid replies from distinct nodes of one group
// have arrived. Replies for other nonces, from signers outside the claimed
// group, with unknown statuses, with a path that cannot belong to a tree of
// the stated size, or with a signature that does not cover the root that
// path commits this request to, are ignored. The signature is checked last:
// a reply from a signer already counted costs no cryptography.
func (r *Requester) OnReply(rep Reply, now time.Time) (done bool, res Result) {
	if !r.active || rep.Client != r.cfg.Client || rep.Nonce != r.nonce {
		return false, Result{}
	}
	if rep.Status != StatusOK && rep.Status != StatusDup {
		return false, Result{}
	}
	if rep.Signer.Group != rep.GID {
		return false, Result{}
	}
	var c *candidate
	for i := 0; i < r.ncand; i++ {
		if r.cands[i].matches(&rep) {
			c = &r.cands[i]
			break
		}
	}
	if c != nil && c.signed(rep.Signer) {
		return false, Result{}
	}
	// The leaf is this request's own (client, nonce), never the reply's say-so.
	var buf [leafSize]byte
	leaf := appendLeaf(buf[:0], r.cfg.Client, r.nonce)
	root, ok := merkle.ProofRoot(rep.Leaves, merkle.Proof{Index: rep.Index, Siblings: rep.Path}, leaf)
	if !ok {
		return false, Result{}
	}
	r.msg = keys.ReceiptMessage(r.msg[:0], rep.Status, rep.GID, rep.Height, rep.Result, root, rep.Leaves)
	if !r.cfg.Verify(rep.Signer, r.msg, rep.Sig) {
		return false, Result{}
	}
	if c == nil {
		if r.ncand == len(r.cands) {
			r.cands = append(r.cands, candidate{})
		}
		c = &r.cands[r.ncand]
		r.ncand++
		*c = candidate{
			status: rep.Status, gid: rep.GID, height: rep.Height,
			result: rep.Result, signers: c.signers[:0],
		}
	}
	c.signers = append(c.signers, rep.Signer)
	if len(c.signers) >= r.cfg.Faulty(rep.GID)+1 {
		res = Result{
			Status: c.status, GID: c.gid, Height: c.height,
			Result: c.result, Replies: len(c.signers), Attempts: r.attempts,
		}
		r.active = false // idle until the next Begin
		return true, res
	}
	return false, Result{}
}

// OnTick checks the attempt deadline. When it expires the requester rotates
// to the next group and reports resubmit=true with the new target; when
// MaxAttempts is exhausted it reports gaveUp=true and goes idle. Collected
// votes survive rotation — late replies from a previous group still count.
func (r *Requester) OnTick(now time.Time) (resubmit bool, group int, gaveUp bool) {
	if !r.active || now.Before(r.deadline) {
		return false, 0, false
	}
	if r.attempts >= r.cfg.MaxAttempts {
		r.active = false
		return false, 0, true
	}
	r.attempts++
	r.group = r.nextUp((r.group + 1) % r.cfg.Groups)
	wait := r.cfg.Timeout << min(r.attempts-1, 3)
	if r.cfg.Jitter {
		h := r.cfg.Client*2654435761 + r.nonce*40503 + uint64(r.attempts)*9176
		wait += wait * time.Duration(h%256) / 1024
	}
	r.deadline = now.Add(wait)
	return true, r.group, false
}

// Active reports whether a request is awaiting its certificate.
func (r *Requester) Active() bool { return r.active }
