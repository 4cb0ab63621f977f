package cluster

import (
	"testing"
	"time"

	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/types"
)

// TestSignRepliesOncePerEntry drives the one reply-construction site the way
// both fabrics do — gateway.Config.Reply → SignReplies — through a counting
// signer: an executed entry costs its node one signature however many
// clients it answers, a dedup-window answer one more, and every reply, after
// a trip through the wire codec, certifies at its own client and at nobody
// else's.
func TestSignRepliesOncePerEntry(t *testing.T) {
	const clients = 150
	pairs, reg, err := keys.GenerateCluster([]int{3}, 11) // f = 0: one reply certifies
	if err != nil {
		t.Fatal(err)
	}
	kp := pairs[0][1]
	signs := 0
	sign := func(msg []byte) []byte { signs++; return kp.Sign(msg) }
	var replies []*ClientReply
	gw := gateway.New(gateway.Config{Reply: func(rc *gateway.Receipt) {
		SignReplies(kp.ID, sign, rc, func(rep *ClientReply) { replies = append(replies, rep) })
	}})

	txns := make([]types.Transaction, 0, clients+1)
	txns = append(txns, types.Transaction{Nonce: 77}) // direct injection: not a leaf
	for c := 1; c <= clients; c++ {
		txns = append(txns, types.Transaction{Client: uint64(c), Nonce: 5})
	}
	gw.Executed(txns, 9, []byte("head"), true)
	if signs != 1 || len(replies) != clients {
		t.Fatalf("signatures=%d replies=%d, want 1 and %d", signs, len(replies), clients)
	}

	certify := func(rep *ClientReply, client, nonce uint64) bool {
		enc, err := EncodeEnvelope(rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != rep.WireSize() {
			t.Fatalf("WireSize %d, encoded %d", rep.WireSize(), len(enc))
		}
		dec, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatal(err)
		}
		rp := dec.(*ClientReply).Reply()
		rp.Client, rp.Nonce = client, nonce // a reply re-addressed to another request must not certify there
		r := gateway.NewRequester(gateway.RequesterConfig{
			Client: client, Groups: 1, Faulty: reg.Faulty, Verify: reg.VerifyMemo, Timeout: time.Second,
		})
		r.Begin(nonce, time.Unix(0, 0))
		done, _ := r.OnReply(rp, time.Unix(0, 1))
		return done
	}
	for i, rep := range replies {
		if rep.Client != uint64(i+1) || rep.Index != i || rep.Leaves != clients || rep.Status != ReplyOK {
			t.Fatalf("reply %d = client %d index %d of %d status %d", i, rep.Client, rep.Index, rep.Leaves, rep.Status)
		}
		if !certify(rep, rep.Client, rep.Nonce) {
			t.Fatalf("reply %d does not certify at its client", i)
		}
		if certify(rep, rep.Client%clients+1, rep.Nonce) || certify(rep, rep.Client, rep.Nonce+1) {
			t.Fatalf("reply %d certifies another client's request", i)
		}
	}
	if _, misses := reg.SigCacheStats(); misses > uint64(1+2*clients) {
		t.Fatalf("%d signature checks: the genuine receipt must be checked once", misses)
	}

	// A retry is answered from the window: a one-leaf receipt, one signature.
	replies = replies[:0]
	if !gw.ServeCached(3, 5) {
		t.Fatal("executed request not in the window")
	}
	if signs != 2 || len(replies) != 1 {
		t.Fatalf("dup answer: signatures=%d replies=%d, want 2 and 1", signs, len(replies))
	}
	dup := replies[0]
	if dup.Status != ReplyDup || dup.Leaves != 1 || dup.Index != 0 || len(dup.Path) != 0 || dup.Height != 9 {
		t.Fatalf("dup answer = %+v", dup)
	}
	if !certify(dup, 3, 5) || certify(dup, 4, 5) {
		t.Fatal("dup answer must certify at client 3 only")
	}
}
