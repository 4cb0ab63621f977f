package keys

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"
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
	reg := &ClientRegistry{pubs: make(map[uint64]ed25519.PublicKey, n)}
	cks := make([]*ClientKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, nil, fmt.Errorf("keys: generating client key %d: %w", i+1, err)
		}
		id := uint64(i + 1)
		cks[i] = &ClientKey{ID: id, Public: pub, Private: priv}
		reg.pubs[id] = pub
	}
	return cks, reg, nil
}

// ClientKeyFor re-derives the key pair of a single client ID (1-based) from
// the shared seed. Client processes use it so a load generator does not need
// to materialize the full registry to sign as one client.
func ClientKeyFor(id uint64, n int, seed int64) (*ClientKey, error) {
	if id == 0 || id > uint64(n) {
		return nil, fmt.Errorf("keys: client id %d outside registry of %d", id, n)
	}
	cks, _, err := GenerateClients(n, seed)
	if err != nil {
		return nil, err
	}
	return cks[id-1], nil
}

// ClientRegistry maps client IDs to public keys so gateways can authenticate
// request intake. Immutable after construction apart from the trustAll
// toggle, which is set once before a run (benchmark mode, mirroring
// Registry.SetTrustAll).
type ClientRegistry struct {
	pubs     map[uint64]ed25519.PublicKey
	trustAll bool
}

// SetTrustAll toggles benchmark mode: signatures are only length-checked and
// the verification cost is charged to the simulated CPU model instead.
func (r *ClientRegistry) SetTrustAll(v bool) { r.trustAll = v }

// Size returns the number of registered clients.
func (r *ClientRegistry) Size() int {
	if r == nil {
		return 0
	}
	return len(r.pubs)
}

// Verify reports whether sig is a valid signature by client id over msg.
func (r *ClientRegistry) Verify(id uint64, msg, sig []byte) bool {
	if r == nil {
		return false
	}
	pub, ok := r.pubs[id]
	if !ok {
		return false
	}
	if r.trustAll {
		return len(sig) == ed25519.SignatureSize
	}
	return ed25519.Verify(pub, msg, sig)
}

// ClientRequestMessage is the byte string a client request signature covers:
// a domain tag plus (client, nonce, payload). Binding the client ID and nonce
// into the signed message makes replay under a different identity or sequence
// number detectable at intake.
func ClientRequestMessage(client, nonce uint64, payload []byte) []byte {
	msg := make([]byte, 0, 4+16+len(payload))
	msg = append(msg, 'c', 'r', 'e', 'q')
	msg = binary.BigEndian.AppendUint64(msg, client)
	msg = binary.BigEndian.AppendUint64(msg, nonce)
	msg = append(msg, payload...)
	return msg
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
