package pbft

import (
	"bytes"
	"testing"
	"time"

	"massbft/internal/keys"
)

// TestNoReplicaVerifiesItsOwnSignature: with a registry of its own per
// replica, every Ed25519 check a replica runs belongs to one peer message
// handed to it. Proposing costs the leader none — it checks no pre-prepare —
// and no Handle call runs more than the one check of the message it handles,
// so the replica's own prepare, commit share and vote go unchecked.
func TestNoReplicaVerifiesItsOwnSignature(t *testing.T) {
	regs := make(map[keys.NodeID]*keys.Registry)
	r, ins, logs, reg := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		_, own, err := keys.GenerateCluster([]int{4}, 11) // buildGroup's keys
		if err != nil {
			t.Fatal(err)
		}
		cfg.Registry = own
		regs[id] = own
	})
	leader := ins[0].cfg.Self.ID
	if err := ins[0].Propose([]byte("entry")); err != nil {
		t.Fatal(err)
	}
	if got := regs[leader].Verified(); got != 0 {
		t.Fatalf("the leader ran %d checks proposing its own pre-prepare and prepare", got)
	}
	handled := make(map[keys.NodeID]uint64) // peer messages that ran a check
	for len(r.queue) > 0 {
		q := r.queue[0]
		r.queue = r.queue[1:]
		before := regs[q.to].Verified()
		r.instances[q.to].Handle(q.from, q.m)
		switch d := regs[q.to].Verified() - before; {
		case d > 1:
			t.Fatalf("%v ran %d checks handling a %T from %v: it checked a message of its own", q.to, d, q.m, q.from)
		case d == 1:
			handled[q.to]++
		}
	}
	for j, in := range ins {
		id := in.cfg.Self.ID
		if got := regs[id].Verified(); got != handled[id] || got == 0 {
			t.Fatalf("%v ran %d checks for %d checked peer messages", id, got, handled[id])
		}
		if len(*logs[j]) != 1 || reg.VerifyCertificate((*logs[j])[0].cert) != nil {
			t.Fatalf("%v: %d deliveries, or a certificate that does not verify", id, len(*logs[j]))
		}
	}
}

// TestForgedOwnVoteRejected: a prepare and a commit share that name the
// replica itself as signer but arrive through Handle are checked like any
// peer's. With bad signatures neither counts, so the replica still sends its
// own share and delivers a certificate that verifies.
func TestForgedOwnVoteRejected(t *testing.T) {
	r, ins, logs, reg := buildGroup(t, 4, nil)
	self, peer := ins[1].cfg.Self.ID, ins[2].cfg.Self.ID
	d := keys.Hash([]byte("entry"))
	forged := keys.Signature{Signer: self, Sig: bytes.Repeat([]byte{7}, 64)}
	ins[1].Handle(peer, &Prepare{View: 0, Slot: 0, Digest: d, Sig: forged})
	ins[1].Handle(peer, &Commit{View: 0, Slot: 0, Digest: d, Share: forged})
	if st := ins[1].slots[0]; st != nil {
		if _, ok := st.prepares[self]; ok {
			t.Fatal("a forged prepare naming the replica itself was counted")
		}
		if _, ok := st.commits[self]; ok {
			t.Fatal("a forged commit share naming the replica itself was counted")
		}
	}
	if err := ins[0].Propose([]byte("entry")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	if len(*logs[1]) != 1 {
		t.Fatalf("replica delivered %d slots, want 1", len(*logs[1]))
	}
	if err := reg.VerifyCertificate((*logs[1])[0].cert); err != nil {
		t.Fatalf("replica certified a forged share of its own: %v", err)
	}
}

// TestReproposalDigestStillChecked: a view-change vote's signature covers
// each prepared slot's digest, not its payload. A new leader re-proposing a
// payload taken from a vote checks it against the digest on its own
// pre-prepare too, so a payload that does not hash to it is never
// pre-prepared, here or at the peers.
func TestReproposalDigestStillChecked(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, nil)
	pairs, _, err := keys.GenerateCluster([]int{4}, 11) // buildGroup's keys
	if err != nil {
		t.Fatal(err)
	}
	vote := func(j int, prepared ...PreparedInfo) *ViewChange {
		vc := &ViewChange{NewView: 1, Prepared: prepared}
		vc.Sig = keys.Signature{Signer: pairs[0][j].ID, Sig: pairs[0][j].Sign(viewChangeMsg(vc))}
		return vc
	}
	leader := ins[1] // leads view 1
	leader.Handle(pairs[0][0].ID, vote(0))
	leader.Handle(pairs[0][2].ID, vote(2, PreparedInfo{Slot: 0, Digest: keys.Hash([]byte("certified")), Payload: []byte("forged")}))
	if leader.View() != 1 || leader.lastNewView == nil || len(leader.lastNewView.Reproposals) != 1 {
		t.Fatalf("the new leader did not install view 1 with one re-proposal (view %d)", leader.View())
	}
	if st := leader.slots[0]; st != nil && st.prePrepare {
		t.Fatal("the new leader pre-prepared a re-proposal whose payload does not hash to its digest")
	}
	r.pump()
	for j, in := range ins {
		if st := in.slots[0]; st != nil && st.prePrepare {
			t.Fatalf("replica %d pre-prepared the mismatched re-proposal", j)
		}
		if len(*logs[j]) != 0 {
			t.Fatalf("replica %d delivered %d slots", j, len(*logs[j]))
		}
	}
}

// fuzzInput reads a fuzz input one byte at a time, zeros once exhausted.
type fuzzInput []byte

func (b *fuzzInput) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzPBFTHandle hands one real-crypto replica of a group of four arbitrary
// messages from its peers, built from the input: any view, slot, digest and
// payload; signers among all four members, the replica itself included; and
// signatures that are random bytes, genuine ones over the message or over
// another, or the replica's own sent messages replayed back to it. Whatever it
// is fed, the replica never delivers a slot whose payload does not hash to its
// certificate's digest, or whose certificate fails VerifyCertificate.
func FuzzPBFTHandle(f *testing.F) {
	pairs, reg, err := keys.GenerateCluster([]int{4}, 11)
	if err != nil {
		f.Fatal(err)
	}
	members := make([]keys.NodeID, 4)
	for j := range members {
		members[j] = pairs[0][j].ID
	}
	payloads := [][]byte{nil, []byte("a"), []byte("b")}
	signed := make(map[string][]byte) // Ed25519 signing dominates an input; sign each message once
	sign := func(j int, msg []byte) []byte {
		k := string(rune('0'+j)) + string(msg)
		if s, ok := signed[k]; ok {
			return s
		}
		s := pairs[0][j].Sign(msg)
		signed[k] = s
		return s
	}
	type shareKey struct {
		j int
		d keys.Digest
	}
	shares := make(map[shareKey]keys.Signature)
	share := func(j int, d keys.Digest) keys.Signature {
		s, ok := shares[shareKey{j, d}]
		if !ok {
			s = keys.SignCertificate(pairs[0][j], 0, d)
			shares[shareKey{j, d}] = s
		}
		return s
	}
	// Replica 1 (a follower) through one slot: the leader's pre-prepare, then
	// prepares and commit shares from members 0 and 2, all genuine.
	happy := []byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0,
		2, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 1, 0, 2, 0, 0}
	f.Add(append([]byte{1}, happy...))
	// The same slot after a forged commit share naming replica 1 itself, and
	// after genuine shares from members 2 and 3 for another digest.
	f.Add(append([]byte{1, 2, 0, 0, 1, 0, 1, 1, 7, 0}, happy...))
	f.Add(append([]byte{1, 2, 0, 0, 2, 0, 2, 0, 0, 2, 0, 0, 2, 0, 3, 0, 0}, happy...))
	// Replica 0 leads: it proposes two slots and commits the first; then a
	// vote arrives whose prepared payload does not hash to its digest, the
	// timers fire and a message it sent comes back.
	f.Add([]byte{0, 8, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 0, 0, 2, 0, 0, 1, 0, 1, 0, 0,
		8, 2, 2, 0, 0, 1, 0, 2, 0, 0, 3, 0, 1, 2, 1, 3, 2, 0, 0, 7, 7, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // 64 steps fit; longer inputs only slow the minimizer
		}
		in := fuzzInput(data)
		self := in.next() % 4
		var sent []Msg
		var timers []func()
		r := New(Config{
			Self: pairs[0][self], Members: members, Registry: reg,
			Send: func(_ keys.NodeID, m Msg) {
				if len(sent) < 64 {
					sent = append(sent, m)
				}
			},
			After:             func(_ time.Duration, fn func()) { timers = append(timers, fn) },
			ViewChangeTimeout: time.Second,
			Filler:            filler,
			Deliver: func(slot uint64, payload []byte, cert *keys.Certificate) {
				if cert == nil || cert.Digest != keys.Hash(payload) {
					t.Fatalf("slot %d delivered with a certificate over another digest", slot)
				}
				if err := reg.VerifyCertificate(cert); err != nil {
					t.Fatalf("slot %d delivered with a certificate that fails: %v", slot, err)
				}
			},
		})
		peer := func() keys.NodeID { return members[(self+1+in.next()%3)%4] }
		payload := func() []byte { return payloads[in.next()%len(payloads)] }
		digest := func(p []byte) keys.Digest {
			if in.next()%4 == 3 {
				return keys.Hash(append([]byte("other"), p...))
			}
			return keys.Hash(p)
		}
		// sig signs msg as member j, or as j over another message, or is
		// random bytes.
		sig := func(j int, msg []byte) keys.Signature {
			switch in.next() % 4 {
			case 1:
				return keys.Signature{Signer: members[j], Sig: sign(j, append(msg, 0))}
			case 2:
				return keys.Signature{Signer: members[j], Sig: bytes.Repeat([]byte{byte(in.next())}, 64)}
			default:
				return keys.Signature{Signer: members[j], Sig: sign(j, msg)}
			}
		}
		prePrepare := func(view uint64) *PrePrepare {
			p := payload()
			pp := &PrePrepare{View: view, Slot: uint64(in.next() % 4), Payload: p, Digest: digest(p)}
			pp.Sig = sig(int(view)%4, phaseMsg(phasePrePrepare, view, pp.Slot, pp.Digest))
			return pp
		}
		for steps := 0; len(in) > 0 && steps < 64; steps++ {
			switch in.next() % 9 {
			case 0:
				pp := prePrepare(uint64(in.next() % 3))
				r.Handle(r.Leader(pp.View), pp)
			case 1:
				p := &Prepare{View: uint64(in.next() % 3), Slot: uint64(in.next() % 4), Digest: digest(payload())}
				p.Sig = sig(in.next()%4, phaseMsg(phasePrepare, p.View, p.Slot, p.Digest))
				r.Handle(peer(), p)
			case 2:
				c := &Commit{View: uint64(in.next() % 3), Slot: uint64(in.next() % 4), Digest: digest(payload())}
				j := in.next() % 4
				c.Share = share(j, c.Digest)
				if in.next()%2 == 1 {
					c.Share.Sig = bytes.Repeat([]byte{byte(in.next())}, 64)
				}
				r.Handle(peer(), c)
			case 3:
				vc := &ViewChange{NewView: uint64(1 + in.next()%3)}
				for k := in.next() % 3; k > 0; k-- {
					p := payload()
					vc.Prepared = append(vc.Prepared, PreparedInfo{Slot: uint64(in.next() % 4), Payload: p, Digest: digest(p)})
				}
				vc.Sig = sig(in.next()%4, viewChangeMsg(vc))
				r.Handle(peer(), vc)
			case 4:
				nv := &NewView{View: uint64(1 + in.next()%3)}
				for k := in.next() % 3; k > 0; k-- {
					nv.Reproposals = append(nv.Reproposals, prePrepare(nv.View))
				}
				nv.Sig = sig(int(nv.View)%4, newViewMsg(nv.View))
				r.Handle(peer(), nv)
			case 5:
				p := payload()
				cs := CommittedSlot{Slot: r.NextDeliverSlot() + uint64(in.next()%2), Payload: p,
					Cert: &keys.Certificate{Group: 0, Digest: digest(p)}}
				for mask, j := in.next(), 0; j < 4; j++ {
					if mask&(1<<j) != 0 {
						s := share(j, cs.Cert.Digest)
						if mask&(16<<j) != 0 {
							s.Sig = bytes.Repeat([]byte{byte(j)}, 64)
						}
						cs.Cert.Sigs = append(cs.Cert.Sigs, s)
					}
				}
				r.Handle(peer(), &SlotReply{Slots: []CommittedSlot{cs}})
			case 6:
				if len(sent) > 0 {
					r.Handle(peer(), sent[in.next()%len(sent)])
				}
			case 7:
				if len(timers) > 0 {
					fn := timers[0]
					timers = timers[1:]
					fn()
				}
			case 8:
				if r.IsLeader() {
					r.Propose(payload())
				} else {
					r.SuspectLeader()
				}
			}
		}
	})
}

// TestEarlyVotesForAnotherDigestDoNotCount: votes can reach a replica before
// the pre-prepare, naming any digest. Once the pre-prepare fixes the slot's
// digest, only the votes for it count: two commit shares for another digest
// that arrived first must not complete the quorum, nor enter the
// certificate, of the proposal that followed.
func TestEarlyVotesForAnotherDigestDoNotCount(t *testing.T) {
	_, ins, logs, reg := buildGroup(t, 4, nil)
	pairs, _, err := keys.GenerateCluster([]int{4}, 11) // buildGroup's keys
	if err != nil {
		t.Fatal(err)
	}
	signed := func(j, phase int, d keys.Digest) keys.Signature {
		return keys.Signature{Signer: pairs[0][j].ID, Sig: pairs[0][j].Sign(phaseMsg(phase, 0, 0, d))}
	}
	x, y := keys.Hash([]byte("x")), keys.Hash([]byte("y"))
	in := ins[1]
	for _, j := range []int{2, 3} {
		in.Handle(pairs[0][j].ID, &Commit{Digest: y, Share: keys.SignCertificate(pairs[0][j], 0, y)})
		in.Handle(pairs[0][j].ID, &Prepare{Digest: y, Sig: signed(j, phasePrepare, y)})
	}
	in.Handle(pairs[0][0].ID, &PrePrepare{Digest: x, Payload: []byte("x"), Sig: signed(0, phasePrePrepare, x)})
	if st := in.slots[0]; st == nil || len(st.prepares) != 1 || len(st.commits) != 0 {
		t.Fatalf("after the pre-prepare: %d deliveries, slot state %+v; want only the replica's own prepare", len(*logs[1]), st)
	}
	in.Handle(pairs[0][0].ID, &Prepare{Digest: x, Sig: signed(0, phasePrepare, x)})
	in.Handle(pairs[0][2].ID, &Prepare{Digest: x, Sig: signed(2, phasePrepare, x)})
	if len(*logs[1]) != 0 {
		t.Fatal("delivered on commit shares for another digest")
	}
	in.Handle(pairs[0][0].ID, &Commit{Digest: x, Share: keys.SignCertificate(pairs[0][0], 0, x)})
	in.Handle(pairs[0][2].ID, &Commit{Digest: x, Share: keys.SignCertificate(pairs[0][2], 0, x)})
	if len(*logs[1]) != 1 || reg.VerifyCertificate((*logs[1])[0].cert) != nil {
		t.Fatal("the proposal's own quorum did not deliver it with a valid certificate")
	}
}
