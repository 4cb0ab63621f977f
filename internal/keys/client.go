package keys

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"massbft/internal/keys/edwards25519"
)

// ClientKey is one external client's Ed25519 signing identity. Client IDs
// start at 1; ID 0 is reserved for the direct-injection workload path (the
// proposer stamps its own node index there), so a gateway can tell the two
// apart at a glance.
type ClientKey struct {
	ID      uint64
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// Sign signs msg with the client's private key.
func (ck *ClientKey) Sign(msg []byte) []byte { return ed25519.Sign(ck.Private, msg) }

// GenerateClients deterministically generates n client key pairs (IDs 1..n)
// from seed, mirroring GenerateCluster so every node — and every client
// process — derives the same registry from the shared topology seed.
func GenerateClients(n int, seed int64) ([]*ClientKey, *ClientRegistry, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("keys: invalid client count %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	reg := &ClientRegistry{clients: make([]clientPub, n)}
	cks := make([]*ClientKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("keys: generating client key %d: %w", i+1, err)
		}
		id := uint64(i + 1)
		cks[i] = &ClientKey{ID: id, Public: pub, Private: priv}
		reg.clients[i].pub = pub
	}
	return cks, reg, nil
}

// ClientRegistry maps client IDs to public keys so gateways can authenticate
// client requests. What it answers is immutable after construction apart from
// the trustAll toggle, which is set once before a run (benchmark mode,
// mirroring Registry.SetTrustAll); what it caches for batch verification —
// each client's decoded key, filled in by the first batch that needs it
// (construction decodes nothing), and idle verifier scratch — is safe to
// share between the nodes of a process.
type ClientRegistry struct {
	clients  []clientPub // client id-1
	trustAll bool

	// idle holds batch-verifier scratch — half a megabyte once it has seen a
	// 400-signature proposal — between uses, for every ClientBatch of the
	// registry. The nodes of a simulated cluster share one registry and take
	// turns on one goroutine, so one verifier serves them all; owned per
	// gateway, twelve of them added 8 % to a run's resident memory.
	mu   sync.Mutex
	idle []*edwards25519.BatchVerifier
}

// clientPub is one registered client: its public key as the wire carries it
// and, once a ClientBatch has needed it, the curve point it encodes. The
// point sits behind an atomic pointer because every node of a process shares
// the registry; two nodes that race to decode store equal points.
type clientPub struct {
	pub   ed25519.PublicKey
	point atomic.Pointer[edwards25519.Point]
}

// SetTrustAll toggles benchmark mode: signatures are only length-checked and
// the verification cost is charged to the simulated CPU model instead.
func (r *ClientRegistry) SetTrustAll(v bool) { r.trustAll = v }

// Size returns the number of registered clients.
func (r *ClientRegistry) Size() int {
	if r == nil {
		return 0
	}
	return len(r.clients)
}

func (r *ClientRegistry) client(id uint64) *clientPub {
	if r == nil || id == 0 || id > uint64(len(r.clients)) {
		return nil
	}
	return &r.clients[id-1]
}

// Known reports whether the registry holds a key for client id.
func (r *ClientRegistry) Known(id uint64) bool { return r.client(id) != nil }

// decoded returns the client's key as a curve point, decoding it on first
// use; nil when the key does not encode a point.
func (c *clientPub) decoded() *edwards25519.Point {
	if p := c.point.Load(); p != nil {
		return p
	}
	p, err := new(edwards25519.Point).SetBytes(c.pub)
	if err != nil {
		return nil
	}
	c.point.Store(p)
	return p
}

// ClientBatch checks client signatures — a leader's cut, a follower's
// proposal — in a single curve equation (edwards25519.VerifyBatch): Reset,
// Add each signature, then Verify. It keeps its list between batches and
// borrows the verifier's scratch from its registry, so a node that checks
// batch after batch allocates nothing in steady state. Not safe for
// concurrent use.
//
// The verdict is RFC 8032's cofactored one (DESIGN.md §10), whatever the
// batch size: a one-signature batch is the single check, and every signature
// crypto/ed25519 accepts satisfies it.
type ClientBatch struct {
	reg      *ClientRegistry
	sigs     []edwards25519.Signature
	verified uint64
}

// NewBatch returns an empty batch that verifies against r.
func (r *ClientRegistry) NewBatch() *ClientBatch { return &ClientBatch{reg: r} }

// Reset empties the batch.
func (b *ClientBatch) Reset() {
	clear(b.sigs)
	b.sigs = b.sigs[:0]
}

// Add queues sig as client id's signature over msg, which must stay
// unchanged until Verify. It reports false — the batch can only fail — for
// a client the registry does not hold, a signature of the wrong length, or a
// registered key that is not a curve point. Under SetTrustAll the known
// client and the length are all there is to check.
func (b *ClientBatch) Add(id uint64, msg, sig []byte) bool {
	c := b.reg.client(id)
	if c == nil || len(sig) != ed25519.SignatureSize {
		return false
	}
	if b.reg.trustAll {
		return true
	}
	a := c.decoded()
	if a == nil {
		return false
	}
	b.sigs = append(b.sigs, edwards25519.Signature{A: a, Pub: c.pub, Msg: msg, Sig: sig})
	return true
}

// Verify reports whether every queued signature is valid. It does not say
// which one is not.
func (b *ClientBatch) Verify() bool {
	if len(b.sigs) == 0 {
		return true
	}
	b.verified += uint64(len(b.sigs))
	v := b.reg.borrow()
	defer b.reg.giveBack(v)
	return v.VerifyBatch(b.sigs)
}

func (r *ClientRegistry) borrow() *edwards25519.BatchVerifier {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.idle); n > 0 {
		v := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return v
	}
	return new(edwards25519.BatchVerifier)
}

func (r *ClientRegistry) giveBack(v *edwards25519.BatchVerifier) {
	r.mu.Lock()
	r.idle = append(r.idle, v)
	r.mu.Unlock()
}

// Verified returns how many signatures Verify has put through the batch
// equation since the batch was created (a cost counter for tests).
func (b *ClientBatch) Verified() uint64 { return b.verified }

// ClientRequestMessage is the byte string a client request signature covers:
// a domain tag plus (client, nonce, payload). Binding the client ID and nonce
// into the signed message makes replay under a different identity or sequence
// number detectable wherever the signature is checked.
func ClientRequestMessage(client, nonce uint64, payload []byte) []byte {
	return AppendClientRequestMessage(make([]byte, 0, 4+16+len(payload)), client, nonce, payload)
}

// AppendClientRequestMessage appends ClientRequestMessage(client, nonce,
// payload) to dst: the form for a verifier that lays the messages of a whole
// batch in one reused buffer.
func AppendClientRequestMessage(dst []byte, client, nonce uint64, payload []byte) []byte {
	dst = append(dst, 'c', 'r', 'e', 'q')
	dst = binary.BigEndian.AppendUint64(dst, client)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	return append(dst, payload...)
}

// ReceiptMessage appends to dst the byte string a node's execution-receipt
// signature covers: a domain tag plus (status, group, height, leaves, root,
// result). root commits to the (client, nonce) pairs of the leaves client
// transactions the entry carried, in entry order, so one signature answers
// every client of the entry: each proves its own pair under root and learns
// that this node executed it at this height with this result. leaves is
// bound because a Merkle path is only meaningful for a stated tree size.
// result comes last — everything before it has a fixed width. The append
// form lets a verifier that checks thousands of these reuse one buffer.
func ReceiptMessage(dst []byte, status byte, gid int, height uint64, result []byte, root [32]byte, leaves int) []byte {
	dst = append(dst, 'c', 'r', 'c', 't', status)
	dst = binary.BigEndian.AppendUint32(dst, uint32(gid))
	dst = binary.BigEndian.AppendUint64(dst, height)
	dst = binary.BigEndian.AppendUint32(dst, uint32(leaves))
	dst = append(dst, root[:]...)
	return append(dst, result...)
}
