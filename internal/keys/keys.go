// Package keys provides the public-key infrastructure MassBFT assumes
// (§III-A): every node holds an Ed25519 key pair, and a Registry maps node
// identities to public keys so any node can verify any other node's
// signatures. Quorum certificates (2f+1 signatures over a digest) are the
// artifact local PBFT consensus produces and global replication carries.
package keys

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"massbft/internal/fifo"
)

// NodeID identifies node j in group i, matching the paper's N_{i,j} notation.
type NodeID struct {
	Group int
	Index int
}

// String formats the ID like the paper: N{group},{index}.
func (n NodeID) String() string { return fmt.Sprintf("N%d,%d", n.Group, n.Index) }

// Less orders NodeIDs lexicographically (group, then index).
func (n NodeID) Less(o NodeID) bool {
	if n.Group != o.Group {
		return n.Group < o.Group
	}
	return n.Index < o.Index
}

// KeyPair holds one node's signing identity.
type KeyPair struct {
	ID      NodeID
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey

	modelled bool
	signed   atomic.Uint64
}

// Sign signs msg with the node's private key. A pair switched to modelled
// signing returns a signature-sized tag instead (see ModelSigning).
func (kp *KeyPair) Sign(msg []byte) []byte {
	if kp.modelled {
		tag := make([]byte, ed25519.SignatureSize)
		h := sha256.Sum256(msg)
		copy(tag, h[:])
		binary.BigEndian.PutUint32(tag[32:], uint32(kp.ID.Group))
		binary.BigEndian.PutUint32(tag[36:], uint32(kp.ID.Index))
		return tag
	}
	kp.signed.Add(1)
	return ed25519.Sign(kp.Private, msg)
}

// Signed returns how many Ed25519 signatures the pair has produced: a passive
// counter, so that a run that models its crypto can be shown to have signed
// nothing.
func (kp *KeyPair) Signed() uint64 { return kp.signed.Load() }

// ModelSigning is the signing half of Registry.SetTrustAll, for the key pairs
// of a cluster whose registries all trust: a signature nobody checks beyond
// its length need not be computed, so Sign returns a deterministic 64-byte
// tag (the message hash and the signer) and runs no Ed25519. Like
// verification under trust-all it costs the host next to nothing, and the
// virtual CPU model is where the cost of signing would be charged. A registry
// that does verify rejects the tag.
func ModelSigning(pairs [][]*KeyPair) {
	for _, group := range pairs {
		for _, kp := range group {
			kp.modelled = true
		}
	}
}

// Registry maps node IDs to public keys. The key material is immutable after
// construction (trustAll is set once before a run) and the memos are locked,
// so a Registry is safe for concurrent use.
type Registry struct {
	keys map[NodeID]ed25519.PublicKey
	// groupSizes[i] is the number of nodes in group i.
	groupSizes []int
	// trustAll, when set, skips the cryptographic check in Verify (the
	// signer must still be a registered node). Benchmarks enable it and
	// charge the verification cost to the simulated CPU model instead —
	// running real Ed25519 for millions of simulated verifications would
	// measure the host, not the protocol. Correctness tests leave it off.
	trustAll bool
	verified atomic.Uint64

	// The verdicts of VerifyCertificate and VerifyMemo by content, failures
	// included (a Byzantine peer replaying one pays one check), the newest
	// memoLimit of each. The same quorum certificate is verified many times
	// per entry (the collector per chunk batch, the orderer per block), and a
	// full check costs 2f+1 Ed25519 verifications.
	certs *fifo.Locked[certCacheKey, error]
	sigs  *fifo.Locked[sigCacheKey, bool]
}

const memoLimit = 4096 // per memo of a registry: a few hundred KiB

// certCacheKey identifies a certificate by content: the claimed group, the
// digest it covers, and a hash of the exact signature set. Two certificates
// over the same digest with different signer sets or signature bytes hash to
// different keys, so a tampered copy never hits a cached verdict.
type certCacheKey struct {
	group    int
	digest   Digest
	sigsHash Digest
}

// certSigsHash hashes the signature set with explicit length framing so
// signer IDs and variable-length signature bytes cannot alias across
// boundaries.
func certSigsHash(sigs []Signature) Digest {
	h := sha256.New()
	var frame [12]byte
	for _, s := range sigs {
		binary.BigEndian.PutUint32(frame[0:4], uint32(s.Signer.Group))
		binary.BigEndian.PutUint32(frame[4:8], uint32(s.Signer.Index))
		binary.BigEndian.PutUint32(frame[8:12], uint32(len(s.Sig)))
		h.Write(frame[:])
		h.Write(s.Sig)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// CertCacheStats returns the number of certificate verifications served from
// the memo cache and the number that ran the full signature check.
func (r *Registry) CertCacheStats() (hits, misses uint64) { return r.certs.Stats() }

// ResetCertCache drops the verification memo and its counters. Benchmarks
// use it to measure the uncached path; production code never needs it.
func (r *Registry) ResetCertCache() { r.certs.Reset() }

// SetTrustAll toggles benchmark mode (see the field comment). Call before
// the run starts.
func (r *Registry) SetTrustAll(v bool) { r.trustAll = v }

// GenerateCluster deterministically generates key pairs for a cluster with
// the given group sizes, seeded so tests and benchmarks are reproducible.
// It returns the per-node key pairs and a shared registry.
func GenerateCluster(groupSizes []int, seed int64) ([][]*KeyPair, *Registry, error) {
	if len(groupSizes) == 0 {
		return nil, nil, errors.New("keys: no groups")
	}
	rng := rand.New(rand.NewSource(seed))
	reg := &Registry{
		keys:       make(map[NodeID]ed25519.PublicKey),
		groupSizes: append([]int(nil), groupSizes...),
		certs:      fifo.NewLocked[certCacheKey, error](memoLimit),
		sigs:       fifo.NewLocked[sigCacheKey, bool](memoLimit),
	}
	pairs := make([][]*KeyPair, len(groupSizes))
	for g, n := range groupSizes {
		if n <= 0 {
			return nil, nil, fmt.Errorf("keys: group %d has invalid size %d", g, n)
		}
		pairs[g] = make([]*KeyPair, n)
		for j := 0; j < n; j++ {
			pub, priv, err := ed25519.GenerateKey(rng)
			if err != nil {
				return nil, nil, fmt.Errorf("keys: generating key for N%d,%d: %w", g, j, err)
			}
			id := NodeID{Group: g, Index: j}
			pairs[g][j] = &KeyPair{ID: id, Public: pub, Private: priv}
			reg.keys[id] = pub
		}
	}
	return pairs, reg, nil
}

// Verify reports whether sig is a valid signature by node id over msg.
func (r *Registry) Verify(id NodeID, msg, sig []byte) bool {
	pub, ok := r.keys[id]
	if !ok {
		return false
	}
	if r.trustAll {
		return len(sig) == ed25519.SignatureSize
	}
	r.verified.Add(1)
	return ed25519.Verify(pub, msg, sig)
}

// Verified returns how many Ed25519 checks Verify has run: a passive counter,
// the verifying half of KeyPair.Signed. Trust-all length checks, unknown
// signers and memo hits (VerifyMemo, VerifyCertificate) run none.
func (r *Registry) Verified() uint64 { return r.verified.Load() }

// sigCacheKey identifies one signature check by content: the claimed signer
// and hashes of the exact message and signature bytes, so a different
// message or a different signature never hits a cached verdict.
type sigCacheKey struct {
	signer  NodeID
	msgHash Digest
	sigHash Digest
}

// VerifyMemo is Verify behind a bounded memo, for a caller that is handed
// the same signed message many times: a client process receives one
// execution receipt once per transaction the entry carried and pays for its
// signature once. The verdict is a pure function of (id, msg, sig) and the
// registry's immutable keys, so every client of a process can share one
// registry's memo; a Byzantine node replaying a bad signature pays one check
// too, because failures are remembered. Trust-all mode bypasses it, as it
// does the certificate memo. Safe for concurrent use.
func (r *Registry) VerifyMemo(id NodeID, msg, sig []byte) bool {
	if r.trustAll {
		return r.Verify(id, msg, sig)
	}
	key := sigCacheKey{signer: id, msgHash: Hash(msg), sigHash: Hash(sig)}
	ok, hit := r.sigs.Get(key)
	if !hit {
		ok = r.Verify(id, msg, sig)
		r.sigs.Put(key, ok)
	}
	return ok
}

// SigCacheStats returns how many VerifyMemo calls the memo answered and how
// many ran the signature check.
func (r *Registry) SigCacheStats() (hits, misses uint64) { return r.sigs.Stats() }

// GroupSize returns the number of nodes in group g, or 0 if g is unknown.
func (r *Registry) GroupSize(g int) int {
	if g < 0 || g >= len(r.groupSizes) {
		return 0
	}
	return r.groupSizes[g]
}

// Groups returns the number of groups.
func (r *Registry) Groups() int { return len(r.groupSizes) }

// Faulty returns f = floor((n-1)/3) for group g, the number of Byzantine
// nodes the group tolerates.
func (r *Registry) Faulty(g int) int { return (r.GroupSize(g) - 1) / 3 }

// QuorumSize returns 2f+1 for group g, the certificate threshold.
func (r *Registry) QuorumSize(g int) int { return 2*r.Faulty(g) + 1 }

// Digest is a SHA-256 digest of a message payload.
type Digest [sha256.Size]byte

// Hash computes the digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// String returns a short hex prefix for logging.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// Signature pairs a signer identity with its signature bytes.
type Signature struct {
	Signer NodeID
	Sig    []byte
}

// Certificate is a quorum certificate: at least 2f+1 signatures from distinct
// nodes of one group over the same digest. It is the proof of local PBFT
// consensus that protects entries from tampering during global replication
// (§II-A).
type Certificate struct {
	Group  int
	Digest Digest
	Sigs   []Signature
}

// certMessage is the byte string every certificate signature covers. It binds
// the group so a certificate from one group cannot be replayed as another's.
func certMessage(group int, d Digest) []byte {
	msg := make([]byte, 0, 5+len(d))
	msg = append(msg, 'c', 'e', 'r', 't', byte(group))
	msg = append(msg, d[:]...)
	return msg
}

// SignCertificate produces a node's signature share for a certificate.
func SignCertificate(kp *KeyPair, group int, d Digest) Signature {
	return Signature{Signer: kp.ID, Sig: kp.Sign(certMessage(group, d))}
}

// Errors returned by certificate verification.
var (
	ErrCertTooFewSigs   = errors.New("keys: certificate has fewer than 2f+1 valid signatures")
	ErrCertWrongGroup   = errors.New("keys: certificate signer from wrong group")
	ErrCertDuplicateSig = errors.New("keys: certificate has duplicate signer")
	ErrCertBadSig       = errors.New("keys: certificate has invalid signature")
)

// VerifyCertificate checks that cert carries at least QuorumSize(cert.Group)
// valid signatures from distinct nodes of cert.Group over cert.Digest.
// Outcomes are memoized by certificate content (see certCacheKey), so
// re-verifying the same certificate is a map lookup; trust-all mode bypasses
// the cache because the check is already trivial and toggling the mode must
// take effect immediately.
func (r *Registry) VerifyCertificate(cert *Certificate) error {
	if cert == nil {
		return errors.New("keys: nil certificate")
	}
	if r.trustAll {
		return r.verifyCertificate(cert)
	}
	key := certCacheKey{group: cert.Group, digest: cert.Digest, sigsHash: certSigsHash(cert.Sigs)}
	err, hit := r.certs.Get(key)
	if !hit {
		err = r.verifyCertificate(cert)
		r.certs.Put(key, err)
	}
	return err
}

// verifyCertificate is the uncached full check.
func (r *Registry) verifyCertificate(cert *Certificate) error {
	msg := certMessage(cert.Group, cert.Digest)
	seen := make(map[NodeID]bool, len(cert.Sigs))
	valid := 0
	for _, s := range cert.Sigs {
		if s.Signer.Group != cert.Group {
			return ErrCertWrongGroup
		}
		if seen[s.Signer] {
			return ErrCertDuplicateSig
		}
		seen[s.Signer] = true
		if !r.Verify(s.Signer, msg, s.Sig) {
			return ErrCertBadSig
		}
		valid++
	}
	if valid < r.QuorumSize(cert.Group) {
		return ErrCertTooFewSigs
	}
	return nil
}

// Size returns the serialized size of the certificate in bytes, used for WAN
// traffic accounting. Each signature is 64 bytes plus an 8-byte signer ID.
func (c *Certificate) Size() int {
	return 4 + len(c.Digest) + len(c.Sigs)*(ed25519.SignatureSize+8)
}

// SortSigs orders the signatures deterministically by signer; certificates
// compared byte-for-byte across nodes must serialize identically.
func (c *Certificate) SortSigs() {
	sort.Slice(c.Sigs, func(i, j int) bool { return c.Sigs[i].Signer.Less(c.Sigs[j].Signer) })
}
