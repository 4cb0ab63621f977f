package gateway

import (
	"fmt"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/types"
)

// proposal builds n correctly signed requests, one per client, from a
// registry of clients clients.
func proposal(t testing.TB, n, clients int) (*keys.ClientRegistry, []*keys.ClientKey, []types.Transaction) {
	t.Helper()
	cks, reg, err := keys.GenerateClients(clients, 42)
	if err != nil {
		t.Fatal(err)
	}
	txns := make([]types.Transaction, n)
	for i := range txns {
		txns[i] = req(cks[i%clients], uint64(1+i/clients), fmt.Sprintf("payload %d", i))
	}
	return reg, cks, txns
}

// TestSubmitUnknownClientCreatesNoState: a stream of requests under made-up
// client ids fails verification without growing the per-client table.
func TestSubmitUnknownClientCreatesNoState(t *testing.T) {
	g := newEnv(t, nil).gw
	for i := 0; i < 10000; i++ {
		txn := types.Transaction{Client: 1000 + uint64(i), Nonce: 1, Payload: []byte("x"), Sig: make([]byte, 64)}
		if err := g.Submit(txn, at(i)); err != ErrBadSignature {
			t.Fatalf("unknown client %d: err = %v, want ErrBadSignature", txn.Client, err)
		}
	}
	if n := len(g.clients); n != 0 {
		t.Fatalf("%d client states created for unknown ids", n)
	}
	m := g.cfg.Metrics
	if m.Counter("gateway-submitted") != 10000 || m.Counter("gateway-verify-fail") != 10000 || g.Pending() != 0 {
		t.Fatalf("submitted %d, verify-fail %d, queued %d",
			m.Counter("gateway-submitted"), m.Counter("gateway-verify-fail"), g.Pending())
	}
}

// TestVerifyTxnsForgeries: one bad transaction fails the proposal wherever it
// sits, at sizes on both sides of the verifier's algorithm switch.
func TestVerifyTxnsForgeries(t *testing.T) {
	for _, n := range []int{1, 3, 17, 64} {
		reg, cks, txns := proposal(t, n, 64)
		g := New(Config{Clients: reg})
		if !g.VerifyTxns(txns) {
			t.Fatalf("n=%d: honest proposal rejected", n)
		}
		forgeries := map[string]func(tx *types.Transaction){
			"flipped signature bit": func(tx *types.Transaction) {
				tx.Sig = append([]byte(nil), tx.Sig...)
				tx.Sig[40] ^= 4
			},
			"tampered payload":          func(tx *types.Transaction) { tx.Payload = []byte("theirs") },
			"another nonce":             func(tx *types.Transaction) { tx.Nonce += 100 },
			"attributed to a neighbour": func(tx *types.Transaction) { tx.Client = tx.Client%64 + 1 },
			"unknown client":            func(tx *types.Transaction) { tx.Client = 999 },
			"short signature":           func(tx *types.Transaction) { tx.Sig = tx.Sig[:63] },
			"another client's signature over the same content": func(tx *types.Transaction) {
				other := cks[tx.Client%64]
				tx.Sig = other.Sign(keys.ClientRequestMessage(tx.Client, tx.Nonce, tx.Payload))
			},
		}
		for name, forge := range forgeries {
			for pos := 0; pos < n; pos++ {
				forged := append([]types.Transaction(nil), txns...)
				forge(&forged[pos])
				if g.VerifyTxns(forged) {
					t.Fatalf("n=%d: %s at position %d accepted", n, name, pos)
				}
			}
		}
		if !g.VerifyTxns(txns) {
			t.Fatalf("n=%d: honest proposal rejected after the forged ones", n)
		}
	}
}

// TestVerifyTxnsCostCeilings pins what the batch path costs a replica: no
// allocation in steady state at 1, 4 and 209 transactions, each signature
// through the batch equation once (which decodes one point per signature,
// edwards25519.TestVerifyBatchCostCeilings, and no key twice,
// keys.TestClientBatch), and no curve work at all under trust-all.
func TestVerifyTxnsCostCeilings(t *testing.T) {
	for _, n := range []int{1, 4, 209} {
		reg, _, txns := proposal(t, n, 256)
		g := New(Config{Clients: reg})
		if !g.VerifyTxns(txns) { // warm-up: grows the scratch, decodes the keys
			t.Fatalf("n=%d: rejected", n)
		}
		before := g.batch.Verified()
		if allocs := testing.AllocsPerRun(3, func() {
			if !g.VerifyTxns(txns) {
				t.Fatal("rejected")
			}
		}); allocs != 0 {
			t.Errorf("n=%d: VerifyTxns allocates %.0f objects in steady state", n, allocs)
		}
		if got := g.batch.Verified() - before; got != uint64(4*n) {
			t.Errorf("n=%d: %d signatures verified over 4 calls, want %d", n, got, 4*n)
		}

		// With direct-injection transactions interleaved, still none.
		mixed := append([]types.Transaction{{Client: 0, Payload: []byte("direct")}}, txns...)
		if allocs := testing.AllocsPerRun(2, func() { g.VerifyTxns(mixed) }); allocs != 0 {
			t.Errorf("n=%d: VerifyTxns with a direct-injection entry allocates %.0f objects", n, allocs)
		}
	}

	// Trust-all: a known-client and length check, no curve work.
	reg, _, txns := proposal(t, 32, 32)
	reg.SetTrustAll(true)
	g := New(Config{Clients: reg})
	if !g.VerifyTxns(txns) || g.batch.Verified() != 0 {
		t.Fatal("trust-all did curve work")
	}
	unknown := append([]types.Transaction(nil), txns...)
	unknown[7].Client = 999
	short := append([]types.Transaction(nil), txns...)
	short[7].Sig = short[7].Sig[:10]
	if g.VerifyTxns(unknown) || g.VerifyTxns(short) {
		t.Fatal("trust-all accepted an unknown client or a short signature")
	}
}

func BenchmarkVerifyTxns(b *testing.B) {
	for _, n := range []int{1, 4, 209} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reg, _, txns := proposal(b, n, 256)
			g := New(Config{Clients: reg})
			g.VerifyTxns(txns)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !g.VerifyTxns(txns) {
					b.Fatal("rejected")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "us/txn")
		})
	}
}
