package edwards25519_test

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/keys/edwards25519"
	"massbft/internal/metrics"
	"massbft/internal/types"
)

// TestCutAgreesWithVote: one validity rule, checked at both places. For each
// of the eight small-order points T, a client request whose signature carries
// R+T gets the same verdict from a leader's cut (gateway.TakeBatch) as from a
// follower's vote (gateway.VerifyTxns): alone, inside a clean cut, and inside
// a cut a forgery poisons, where the cut checks each signature alone. The
// fallback is the cofactored equation too: crypto/ed25519's cofactorless
// check rejects seven of these, and with it a request's fate would depend on
// which others shared its cut.
func TestCutAgreesWithVote(t *testing.T) {
	cks, reg, err := keys.GenerateClients(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	sign := func(ck *keys.ClientKey, nonce uint64, payload string) types.Transaction {
		msg := keys.ClientRequestMessage(ck.ID, nonce, []byte(payload))
		return types.Transaction{Client: ck.ID, Nonce: nonce, Payload: []byte(payload), Sig: ck.Sign(msg)}
	}
	cofactorlessRejects := 0
	for ti, tp := range edwards25519.TorsionPoints(t) {
		ck, nonce := cks[0], uint64(ti+1)
		payload := fmt.Sprintf("torsion %d", ti)
		msg := keys.ClientRequestMessage(ck.ID, nonce, []byte(payload))
		tx := types.Transaction{Client: ck.ID, Nonce: nonce, Payload: []byte(payload),
			Sig: edwards25519.SignMovingR(t, ck.Private, msg, tp)}
		if !ed25519.Verify(ck.Public, msg, tx.Sig) {
			cofactorlessRejects++
		}
		vote := gateway.New(gateway.Config{Clients: reg}).VerifyTxns([]types.Transaction{tx})
		if !vote {
			t.Fatalf("T%d: the vote rejects a signature the cofactored rule accepts", ti)
		}

		var clean []types.Transaction
		for i, ck := range cks[1:9] {
			clean = append(clean, sign(ck, nonce, fmt.Sprintf("honest %d", i)))
		}
		forged := sign(cks[9], nonce, "forged")
		forged.Sig[40] ^= 4
		for _, c := range []struct {
			name  string
			reqs  []types.Transaction
			fails int64
		}{
			{"alone", []types.Transaction{tx}, 0},
			{"in a clean cut", append([]types.Transaction{tx}, clean...), 0},
			{"in a poisoned cut", append(append([]types.Transaction{forged}, clean...), tx), 1},
		} {
			m := metrics.NewCollector()
			g := gateway.New(gateway.Config{Clients: reg, Metrics: m})
			for _, r := range c.reqs {
				if err := g.Submit(r, time.Time{}); err != nil {
					t.Fatal(err)
				}
			}
			cut := g.TakeBatch(time.Time{}, 0, true)
			taken := false
			for _, r := range cut {
				taken = taken || r.Client == tx.Client && bytes.Equal(r.Sig, tx.Sig)
			}
			if taken != vote || len(cut) != len(c.reqs)-int(c.fails) || m.Counter("gateway-verify-fail") != c.fails {
				t.Fatalf("T%d %s: cut %d of %d requests (torsion one taken: %v, vote %v), %d evicted",
					ti, c.name, len(cut), len(c.reqs), taken, vote, m.Counter("gateway-verify-fail"))
			}
			if !g.VerifyTxns(cut) {
				t.Fatalf("T%d %s: the follower rule rejects the leader's cut", ti, c.name)
			}
		}
	}
	if cofactorlessRejects < 7 {
		t.Fatalf("crypto/ed25519 rejected %d of the torsion signatures, expected the 7 with T != O", cofactorlessRejects)
	}
}
