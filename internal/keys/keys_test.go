package keys

import (
	"bytes"
	"testing"
)

func genTestCluster(t *testing.T) ([][]*KeyPair, *Registry) {
	t.Helper()
	pairs, reg, err := GenerateCluster([]int{4, 7}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, reg
}

func TestGenerateClusterShape(t *testing.T) {
	pairs, reg := genTestCluster(t)
	if len(pairs) != 2 || len(pairs[0]) != 4 || len(pairs[1]) != 7 {
		t.Fatal("wrong cluster shape")
	}
	if reg.Groups() != 2 || reg.GroupSize(0) != 4 || reg.GroupSize(1) != 7 {
		t.Fatal("registry shape wrong")
	}
	if reg.GroupSize(9) != 0 || reg.GroupSize(-1) != 0 {
		t.Fatal("unknown group size should be 0")
	}
}

func TestGenerateClusterErrors(t *testing.T) {
	if _, _, err := GenerateCluster(nil, 1); err == nil {
		t.Fatal("expected error for no groups")
	}
	if _, _, err := GenerateCluster([]int{4, 0}, 1); err == nil {
		t.Fatal("expected error for empty group")
	}
}

func TestGenerateClusterDeterministic(t *testing.T) {
	a, _, _ := GenerateCluster([]int{3}, 7)
	b, _, _ := GenerateCluster([]int{3}, 7)
	for i := range a[0] {
		if string(a[0][i].Public) != string(b[0][i].Public) {
			t.Fatal("same seed produced different keys")
		}
	}
	c, _, _ := GenerateCluster([]int{3}, 8)
	if string(a[0][0].Public) == string(c[0][0].Public) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestSignVerify(t *testing.T) {
	pairs, reg := genTestCluster(t)
	msg := []byte("entry e1,10")
	sig := pairs[0][1].Sign(msg)
	if !reg.Verify(NodeID{0, 1}, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if reg.Verify(NodeID{0, 2}, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
	if reg.Verify(NodeID{0, 1}, []byte("other"), sig) {
		t.Fatal("signature verified over wrong message")
	}
	if reg.Verify(NodeID{5, 5}, msg, sig) {
		t.Fatal("unknown node verified")
	}
}

func TestFaultyAndQuorum(t *testing.T) {
	_, reg := genTestCluster(t)
	if reg.Faulty(0) != 1 || reg.QuorumSize(0) != 3 {
		t.Fatalf("group 0 (n=4): f=%d q=%d", reg.Faulty(0), reg.QuorumSize(0))
	}
	if reg.Faulty(1) != 2 || reg.QuorumSize(1) != 5 {
		t.Fatalf("group 1 (n=7): f=%d q=%d", reg.Faulty(1), reg.QuorumSize(1))
	}
}

func buildCert(pairs [][]*KeyPair, group int, d Digest, signers []int) *Certificate {
	cert := &Certificate{Group: group, Digest: d}
	for _, j := range signers {
		cert.Sigs = append(cert.Sigs, SignCertificate(pairs[group][j], group, d))
	}
	return cert
}

func TestCertificateValid(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 4})
	if err := reg.VerifyCertificate(cert); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateTooFew(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3}) // need 5 for n=7
	if err := reg.VerifyCertificate(cert); err != ErrCertTooFewSigs {
		t.Fatalf("got %v, want ErrCertTooFewSigs", err)
	}
}

func TestCertificateDuplicateSigner(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 3})
	if err := reg.VerifyCertificate(cert); err != ErrCertDuplicateSig {
		t.Fatalf("got %v, want ErrCertDuplicateSig", err)
	}
}

func TestCertificateWrongGroupSigner(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3})
	cert.Sigs = append(cert.Sigs, SignCertificate(pairs[0][0], 0, d))
	if err := reg.VerifyCertificate(cert); err != ErrCertWrongGroup {
		t.Fatalf("got %v, want ErrCertWrongGroup", err)
	}
}

func TestCertificateTamperedDigest(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 4})
	cert.Digest = Hash([]byte("tampered"))
	if err := reg.VerifyCertificate(cert); err != ErrCertBadSig {
		t.Fatalf("got %v, want ErrCertBadSig", err)
	}
}

func TestCertificateCrossGroupReplay(t *testing.T) {
	// Signatures bind the group: a group-0 certificate must not verify when
	// relabeled as group 1 even if the signers were valid there.
	pairs, _, _ := GenerateCluster([]int{4, 4}, 9)
	_, reg, _ := GenerateCluster([]int{4, 4}, 9)
	d := Hash([]byte("x"))
	cert := buildCert(pairs, 0, d, []int{0, 1, 2})
	cert.Group = 1
	for i := range cert.Sigs {
		cert.Sigs[i].Signer.Group = 1
	}
	if err := reg.VerifyCertificate(cert); err == nil {
		t.Fatal("cross-group replay verified")
	}
}

func TestCertificateNil(t *testing.T) {
	_, reg := genTestCluster(t)
	if err := reg.VerifyCertificate(nil); err == nil {
		t.Fatal("nil certificate verified")
	}
}

func TestNodeIDOrdering(t *testing.T) {
	a := NodeID{0, 5}
	b := NodeID{1, 0}
	c := NodeID{1, 2}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("NodeID ordering wrong")
	}
	if a.String() != "N0,5" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestCertificateSortAndSize(t *testing.T) {
	pairs, _ := genTestCluster(t)
	d := Hash([]byte("p"))
	cert := buildCert(pairs, 1, d, []int{4, 2, 0, 3, 1})
	cert.SortSigs()
	for i := 1; i < len(cert.Sigs); i++ {
		if !cert.Sigs[i-1].Signer.Less(cert.Sigs[i].Signer) {
			t.Fatal("sigs not sorted")
		}
	}
	if cert.Size() <= 0 {
		t.Fatal("size should be positive")
	}
}

func BenchmarkSignVerify(b *testing.B) {
	pairs, reg, _ := GenerateCluster([]int{4}, 1)
	msg := make([]byte, 201) // YCSB-A average transaction size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := pairs[0][0].Sign(msg)
		if !reg.Verify(NodeID{0, 0}, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func TestTrustAllMode(t *testing.T) {
	pairs, reg := genTestCluster(t)
	reg.SetTrustAll(true)
	// Any 64-byte blob from a registered node passes; unknown nodes and
	// wrong-size blobs still fail.
	if !reg.Verify(NodeID{Group: 0, Index: 1}, []byte("m"), make([]byte, 64)) {
		t.Fatal("trust-all rejected registered node")
	}
	if reg.Verify(NodeID{Group: 5, Index: 5}, []byte("m"), make([]byte, 64)) {
		t.Fatal("trust-all accepted unknown node")
	}
	if reg.Verify(NodeID{Group: 0, Index: 1}, []byte("m"), []byte("short")) {
		t.Fatal("trust-all accepted malformed signature")
	}
	reg.SetTrustAll(false)
	if reg.Verify(NodeID{Group: 0, Index: 1}, []byte("m"), make([]byte, 64)) {
		t.Fatal("disabling trust-all did not restore real verification")
	}
	_ = pairs
}

// TestModelSigning: a modelled pair returns a signature-sized tag, the same
// for the same message and signer and different otherwise, without signing;
// trust-all registries take it and a verifying one does not.
func TestModelSigning(t *testing.T) {
	pairs, reg := genTestCluster(t)
	real := pairs[0][0].Sign([]byte("m"))
	if !reg.Verify(pairs[0][0].ID, []byte("m"), real) || pairs[0][0].Signed() != 1 {
		t.Fatal("a fresh pair must sign with Ed25519 and count it")
	}
	ModelSigning(pairs)
	kp := pairs[0][1]
	tag := kp.Sign([]byte("m"))
	if len(tag) != 64 || bytes.Equal(tag, real) || kp.Signed() != 0 || pairs[0][0].Signed() != 1 {
		t.Fatalf("modelled Sign: %d-byte tag, %d signatures counted", len(tag), kp.Signed())
	}
	if !bytes.Equal(tag, kp.Sign([]byte("m"))) || bytes.Equal(tag, kp.Sign([]byte("n"))) ||
		bytes.Equal(tag, pairs[0][2].Sign([]byte("m"))) {
		t.Fatal("a tag must be a function of exactly the message and the signer")
	}
	if reg.Verify(kp.ID, []byte("m"), tag) {
		t.Fatal("a verifying registry accepted a modelled tag")
	}
	cert := &Certificate{Group: 0, Digest: Hash([]byte("entry"))}
	for _, p := range pairs[0][:reg.QuorumSize(0)] {
		cert.Sigs = append(cert.Sigs, SignCertificate(p, 0, cert.Digest))
	}
	if err := reg.VerifyCertificate(cert); err == nil {
		t.Fatal("a verifying registry accepted a certificate of modelled tags")
	}
	reg.SetTrustAll(true)
	if !reg.Verify(kp.ID, []byte("m"), tag) || reg.VerifyCertificate(cert) != nil {
		t.Fatal("a trust-all registry rejected modelled tags")
	}
}

// TestCertificateMemoization checks that repeated verifications of the same
// certificate are served from the cache, that both success and failure
// verdicts are memoized, and that tampering with any signature byte produces
// a distinct cache key (no stale verdict).
func TestCertificateMemoization(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 4})

	for i := 0; i < 3; i++ {
		if err := reg.VerifyCertificate(cert); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := reg.CertCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("valid cert: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// A failure verdict is cached too, under its own key.
	bad := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 4})
	bad.Sigs[2].Sig[0] ^= 0xff
	for i := 0; i < 2; i++ {
		if err := reg.VerifyCertificate(bad); err != ErrCertBadSig {
			t.Fatalf("tampered cert: got %v, want ErrCertBadSig", err)
		}
	}
	hits, misses = reg.CertCacheStats()
	if misses != 2 || hits != 3 {
		t.Fatalf("after tampered cert: hits=%d misses=%d, want 3/2", hits, misses)
	}

	// Restoring the byte returns to the (cached) valid verdict.
	bad.Sigs[2].Sig[0] ^= 0xff
	if err := reg.VerifyCertificate(bad); err != nil {
		t.Fatal(err)
	}
	hits, _ = reg.CertCacheStats()
	if hits != 4 {
		t.Fatalf("restored cert should hit the valid entry, hits=%d", hits)
	}
}

// TestCertificateCacheBounded: distinct certificates, good and bad, each miss
// once and keep their own verdicts. The bound itself is fifo.Locked's
// (TestLockedConcurrent); TestVerifyMemoPastBound crosses it.
func TestCertificateCacheBounded(t *testing.T) {
	pairs, reg := genTestCluster(t)
	for i := 0; i < 20; i++ {
		cert := buildCert(pairs, 0, Hash([]byte{byte(i)}), []int{0, 1, 2})
		want := error(nil)
		if i%2 == 1 {
			cert.Sigs[1].Sig[0] ^= 1
			want = ErrCertBadSig
		}
		for pass := 0; pass < 2; pass++ {
			if err := reg.VerifyCertificate(cert); err != want {
				t.Fatalf("cert %d pass %d: got %v, want %v", i, pass, err, want)
			}
		}
	}
	if hits, misses := reg.CertCacheStats(); hits != 20 || misses != 20 {
		t.Fatalf("hits=%d misses=%d, want 20/20", hits, misses)
	}
}

// TestCertificateMemoTrustAllBypass checks trust-all verification never
// touches the cache, so toggling the mode takes effect immediately.
func TestCertificateMemoTrustAllBypass(t *testing.T) {
	pairs, reg := genTestCluster(t)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 1, d, []int{0, 1, 2, 3, 4})
	reg.SetTrustAll(true)
	if err := reg.VerifyCertificate(cert); err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.CertCacheStats()
	if hits != 0 || misses != 0 {
		t.Fatalf("trust-all touched the cache: hits=%d misses=%d", hits, misses)
	}
	reg.SetTrustAll(false)
	if err := reg.VerifyCertificate(cert); err != nil {
		t.Fatal(err)
	}
	if _, misses = reg.CertCacheStats(); misses != 1 {
		t.Fatalf("real verification after trust-all should miss once, misses=%d", misses)
	}
}

// TestVerifyMemo: the signature memo answers by exact (signer, message,
// signature), remembers failures, and is bypassed under trust-all.
func TestVerifyMemo(t *testing.T) {
	pairs, reg := genTestCluster(t)
	kp := pairs[0][1]
	msg := []byte("receipt")
	sig := kp.Sign(msg)
	for i := 0; i < 3; i++ {
		if !reg.VerifyMemo(kp.ID, msg, sig) {
			t.Fatal("valid signature rejected")
		}
	}
	if hits, misses := reg.SigCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("valid: hits=%d misses=%d, want 2/1", hits, misses)
	}
	// None of these may read the cached ok: each is its own content.
	bad := append([]byte(nil), sig...)
	bad[3] ^= 1
	for i, c := range []struct {
		id       NodeID
		msg, sig []byte
	}{
		{kp.ID, msg, bad},
		{kp.ID, []byte("receipt2"), sig},
		{pairs[0][2].ID, msg, sig},
	} {
		for pass := 0; pass < 2; pass++ {
			if reg.VerifyMemo(c.id, c.msg, c.sig) {
				t.Fatalf("case %d pass %d verified", i, pass)
			}
		}
	}
	if hits, misses := reg.SigCacheStats(); hits != 5 || misses != 4 {
		t.Fatalf("after failures: hits=%d misses=%d, want 5/4", hits, misses)
	}

	_, trusting := genTestCluster(t)
	trusting.SetTrustAll(true)
	if !trusting.VerifyMemo(kp.ID, msg, make([]byte, 64)) {
		t.Fatal("trust-all rejected a 64-byte signature")
	}
	if hits, misses := trusting.SigCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("trust-all touched the memo: hits=%d misses=%d", hits, misses)
	}
}

// TestVerifyMemoPastBound: a quarter past the memo's bound, the newest
// memoLimit verdicts still hit and the oldest has gone; every verdict, the
// failures too, stays right.
func TestVerifyMemoPastBound(t *testing.T) {
	pairs, reg := genTestCluster(t)
	kp := pairs[0][1]
	other := kp.Sign([]byte("other"))
	n := memoLimit + memoLimit/4
	msgs, sigs := make([][]byte, n), make([][]byte, n)
	for i := range msgs {
		msgs[i], sigs[i] = []byte{'m', byte(i), byte(i >> 8)}, other
		if i%3 == 0 {
			sigs[i] = kp.Sign(msgs[i])
		}
	}
	check := func(i int) {
		t.Helper()
		if got := reg.VerifyMemo(kp.ID, msgs[i], sigs[i]); got != (i%3 == 0) {
			t.Fatalf("message %d verified %v", i, got)
		}
	}
	for i := range msgs {
		check(i)
	}
	checked := reg.Verified()
	for i := n - memoLimit; i < n; i++ {
		check(i)
	}
	if hits, misses := reg.SigCacheStats(); hits != memoLimit || misses != uint64(n) || reg.Verified() != checked {
		t.Fatalf("newest %d again: hits=%d misses=%d, %d checks run; want %d/%d, 0",
			memoLimit, hits, misses, reg.Verified()-checked, memoLimit, n)
	}
	check(0)
	if _, misses := reg.SigCacheStats(); misses != uint64(n)+1 {
		t.Fatalf("the oldest verdict still hit after %d newer ones", n-1)
	}
}

// TestVerifiedCountsChecksRun: Verified counts the Ed25519 checks run, failed
// ones included, and nothing a memo or trust-all answers.
func TestVerifiedCountsChecksRun(t *testing.T) {
	pairs, reg := genTestCluster(t)
	kp := pairs[0][1]
	msg := []byte("m")
	sig := kp.Sign(msg)
	reg.Verify(kp.ID, msg, sig)
	reg.Verify(kp.ID, []byte("other"), sig)
	reg.Verify(NodeID{Group: 5, Index: 5}, msg, sig) // unknown signer: no check
	if got := reg.Verified(); got != 2 {
		t.Fatalf("two checks and an unknown signer counted %d, want 2", got)
	}
	reg.VerifyMemo(kp.ID, msg, sig)
	reg.VerifyMemo(kp.ID, msg, sig)
	cert := buildCert(pairs, 0, Hash(msg), []int{0, 1, 2})
	reg.VerifyCertificate(cert)
	reg.VerifyCertificate(cert)
	if got := reg.Verified(); got != 2+1+3 {
		t.Fatalf("after two memoized lookups of each kind: %d, want 6", got)
	}
	reg.SetTrustAll(true)
	reg.Verify(kp.ID, msg, sig)
	reg.VerifyCertificate(cert)
	if got := reg.Verified(); got != 6 {
		t.Fatalf("trust-all checks counted: %d, want 6", got)
	}
}

func BenchmarkVerifyCertificateUncached(b *testing.B) {
	pairs, reg, _ := GenerateCluster([]int{7}, 1)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 0, d, []int{0, 1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.ResetCertCache()
		if err := reg.VerifyCertificate(cert); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCertificateCached(b *testing.B) {
	pairs, reg, _ := GenerateCluster([]int{7}, 1)
	d := Hash([]byte("payload"))
	cert := buildCert(pairs, 0, d, []int{0, 1, 2, 3, 4})
	if err := reg.VerifyCertificate(cert); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.VerifyCertificate(cert); err != nil {
			b.Fatal(err)
		}
	}
}
