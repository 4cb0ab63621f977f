package pbft

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"massbft/internal/keys"
)

// router is a deterministic in-memory message bus for unit-testing instances
// without the network emulator: messages queue FIFO and are pumped until
// drained. Virtual timers are kept in a sorted list and fired by advance().
type router struct {
	t         *testing.T
	instances map[keys.NodeID]*Instance
	queue     []queued
	timers    []timer
	now       time.Duration
	// drop returns true to discard a message (link-level fault injection).
	drop func(from, to keys.NodeID, m Msg) bool
}

type queued struct {
	from, to keys.NodeID
	m        Msg
}

type timer struct {
	at time.Duration
	fn func()
}

func newRouter(t *testing.T) *router {
	return &router{t: t, instances: make(map[keys.NodeID]*Instance)}
}

func (r *router) send(from keys.NodeID) func(keys.NodeID, Msg) {
	return func(to keys.NodeID, m Msg) {
		if r.drop != nil && r.drop(from, to, m) {
			return
		}
		r.queue = append(r.queue, queued{from, to, m})
	}
}

func (r *router) after(d time.Duration, fn func()) {
	r.timers = append(r.timers, timer{r.now + d, fn})
}

// pump delivers queued messages until quiescent.
func (r *router) pump() {
	for len(r.queue) > 0 {
		q := r.queue[0]
		r.queue = r.queue[1:]
		if in, ok := r.instances[q.to]; ok {
			in.Handle(q.from, q.m)
		}
	}
}

// advance fires all timers up to d from now, pumping messages in between.
func (r *router) advance(d time.Duration) {
	deadline := r.now + d
	for {
		r.pump()
		sort.SliceStable(r.timers, func(i, j int) bool { return r.timers[i].at < r.timers[j].at })
		if len(r.timers) == 0 || r.timers[0].at > deadline {
			break
		}
		tm := r.timers[0]
		r.timers = r.timers[1:]
		r.now = tm.at
		tm.fn()
	}
	r.now = deadline
	r.pump()
}

// filler is the groups' Config.Filler: a payload no test proposes.
func filler(slot uint64) []byte { return []byte(fmt.Sprintf("filler-%d", slot)) }

type delivered struct {
	slot    uint64
	payload []byte
	cert    *keys.Certificate
}

// buildGroup creates a PBFT group of size n with per-node delivery logs.
func buildGroup(t *testing.T, n int, mutate func(id keys.NodeID, cfg *Config)) (*router, []*Instance, []*[]delivered, *keys.Registry) {
	t.Helper()
	pairs, reg, err := keys.GenerateCluster([]int{n}, 11)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]keys.NodeID, n)
	for j := 0; j < n; j++ {
		members[j] = keys.NodeID{Group: 0, Index: j}
	}
	r := newRouter(t)
	instances := make([]*Instance, n)
	logs := make([]*[]delivered, n)
	for j := 0; j < n; j++ {
		log := &[]delivered{}
		logs[j] = log
		cfg := Config{
			Self:     pairs[0][j],
			Members:  members,
			Registry: reg,
			Send:     r.send(members[j]),
			After:    r.after,
			Deliver: func(slot uint64, payload []byte, cert *keys.Certificate) {
				*log = append(*log, delivered{slot, payload, cert})
			},
			Filler: filler,
		}
		if mutate != nil {
			mutate(members[j], &cfg)
		}
		in := New(cfg)
		instances[j] = in
		r.instances[members[j]] = in
	}
	return r, instances, logs, reg
}

func TestCommitHappyPath(t *testing.T) {
	r, ins, logs, reg := buildGroup(t, 4, nil)
	if err := ins[0].Propose([]byte("entry-1")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	for j, log := range logs {
		if len(*log) != 1 {
			t.Fatalf("node %d delivered %d entries, want 1", j, len(*log))
		}
		got := (*log)[0]
		if got.slot != 0 || !bytes.Equal(got.payload, []byte("entry-1")) {
			t.Fatalf("node %d delivered wrong slot/payload", j)
		}
		if err := reg.VerifyCertificate(got.cert); err != nil {
			t.Fatalf("node %d: bad certificate: %v", j, err)
		}
	}
}

// TestValidateHookBlocksInvalidProposal: replicas refuse to vote on a
// proposal their Validate hook rejects, so it never reaches quorum — the
// application-level defense against a Byzantine leader proposing fabricated
// content (core wires client-signature verification here). Valid proposals
// and fillers flow normally.
func TestValidateHookBlocksInvalidProposal(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
		cfg.Validate = func(_ uint64, payload []byte) bool { return !bytes.HasPrefix(payload, []byte("evil")) }
	})
	if err := ins[0].Propose([]byte("evil-entry")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	for j, log := range logs {
		if len(*log) != 0 {
			t.Fatalf("node %d delivered a rejected proposal", j)
		}
	}
	// The slot is poisoned for this view (each replica refused its first
	// pre-prepare). A fresh valid proposal on the next slot still gathers a
	// quorum, but in-order delivery holds it behind the wedged slot.
	if err := ins[0].Propose([]byte("good-entry")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	// The protocol layer's liveness watchdog (core watches lastLocalProgress)
	// suspects the leader; the resulting view change fills the rejected slot
	// and releases the pipeline.
	for j := 1; j < 4; j++ {
		ins[j].SuspectLeader()
	}
	r.advance(time.Second)
	for j, log := range logs {
		var got []byte
		for _, d := range *log {
			if bytes.Equal(d.payload, []byte("good-entry")) {
				got = d.payload
			}
		}
		if got == nil {
			t.Fatalf("node %d: valid proposal did not commit after view change (log %d entries)", j, len(*log))
		}
	}
}

// TestRefusedPrePrepareGathersNoPrepare: Validate sees the slot, and a
// pre-prepare it refuses — here a payload proposed at another slot than the
// one it names — draws no prepare from any replica, the leader included.
func TestRefusedPrePrepareGathersNoPrepare(t *testing.T) {
	prepares := map[uint64]int{}
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.Validate = func(slot uint64, payload []byte) bool { return string(payload) == fmt.Sprintf("e%d", slot) }
	})
	r.drop = func(_, _ keys.NodeID, m Msg) bool {
		if p, ok := m.(*Prepare); ok {
			prepares[p.Slot]++
		}
		return false
	}
	if err := ins[0].Propose([]byte("e1")); err != nil { // slot 0
		t.Fatal(err)
	}
	r.pump()
	if prepares[0] != 0 {
		t.Fatalf("a refused pre-prepare drew %d prepares", prepares[0])
	}
	if err := ins[0].Propose([]byte("e1")); err != nil { // slot 1
		t.Fatal(err)
	}
	r.pump()
	if prepares[1] != 4*3 {
		t.Fatalf("the valid pre-prepare at slot 1 drew %d prepares, want 12", prepares[1])
	}
	for j, log := range logs {
		if len(*log) != 0 {
			t.Fatalf("node %d delivered past the refused slot: %v", j, *log)
		}
	}
}

// TestViewChangeFillsGapWithFiller: a slot that no view-change vote reports
// prepared delivers Config.Filler's bytes on every replica, under a quorum
// certificate over those bytes, and the prepared slot above it delivers as
// proposed.
func TestViewChangeFillsGapWithFiller(t *testing.T) {
	r, ins, logs, reg := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
	})
	leader := keys.NodeID{Group: 0, Index: 0}
	crashed := false
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		switch m := m.(type) {
		case *PrePrepare:
			return m.Slot == 0 && m.View == 0 // slot 0 never reaches a follower
		case *Commit:
			return m.View == 0 // slot 1 prepares but does not commit
		}
		return crashed && (from == leader || to == leader)
	}
	for _, p := range []string{"lost", "kept"} {
		if err := ins[0].Propose([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	r.pump()
	crashed = true
	r.advance(time.Second)
	for j := 1; j < 4; j++ {
		log := *logs[j]
		if len(log) != 2 || !bytes.Equal(log[0].payload, filler(0)) || !bytes.Equal(log[1].payload, []byte("kept")) {
			t.Fatalf("node %d: want the filler then the prepared slot, got %v", j, log)
		}
		if log[0].slot != 0 || log[0].cert.Digest != keys.Hash(filler(0)) {
			t.Fatalf("node %d: the filler's certificate names another digest", j)
		}
		if err := reg.VerifyCertificate(log[0].cert); err != nil {
			t.Fatalf("node %d: the filler's certificate fails: %v", j, err)
		}
	}
}

func TestNonLeaderCannotPropose(t *testing.T) {
	_, ins, _, _ := buildGroup(t, 4, nil)
	if err := ins[1].Propose([]byte("x")); err == nil {
		t.Fatal("non-leader Propose succeeded")
	}
}

func TestMultipleSlotsInOrder(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, nil)
	for i := 0; i < 5; i++ {
		if err := ins[0].Propose([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.pump()
	for j, log := range logs {
		if len(*log) != 5 {
			t.Fatalf("node %d delivered %d, want 5", j, len(*log))
		}
		for i, d := range *log {
			if d.slot != uint64(i) || string(d.payload) != fmt.Sprintf("e%d", i) {
				t.Fatalf("node %d slot %d: got %q", j, d.slot, d.payload)
			}
		}
	}
}

func TestCommitWithFSilentFollowers(t *testing.T) {
	// n=4, f=1: one silent (crashed) follower must not block commit.
	r, ins, logs, _ := buildGroup(t, 4, nil)
	dead := keys.NodeID{Group: 0, Index: 3}
	r.drop = func(from, to keys.NodeID, m Msg) bool { return from == dead || to == dead }
	if err := ins[0].Propose([]byte("e")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	for j := 0; j < 3; j++ {
		if len(*logs[j]) != 1 {
			t.Fatalf("node %d delivered %d, want 1", j, len(*logs[j]))
		}
	}
	if len(*logs[3]) != 0 {
		t.Fatal("dead node delivered")
	}
}

func TestNoCommitWithoutQuorum(t *testing.T) {
	// Drop everything to 2 of 4 nodes: only 2 remain, below quorum 3.
	r, ins, logs, _ := buildGroup(t, 4, nil)
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		return to.Index >= 2 || from.Index >= 2
	}
	if err := ins[0].Propose([]byte("e")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	for j, log := range logs {
		if len(*log) != 0 {
			t.Fatalf("node %d delivered without quorum", j)
		}
	}
}

func TestSkipPrepareTwoPhase(t *testing.T) {
	r, ins, logs, reg := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) { cfg.SkipPrepare = true })
	if err := ins[0].Propose([]byte("accept-msg")); err != nil {
		t.Fatal(err)
	}
	// Count message kinds: skip-prepare must produce no Prepare messages.
	sawPrepare := false
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		if _, ok := m.(*Prepare); ok {
			sawPrepare = true
		}
		return false
	}
	r.pump()
	if sawPrepare {
		t.Fatal("skip-prepare mode sent Prepare messages")
	}
	for j, log := range logs {
		if len(*log) != 1 {
			t.Fatalf("node %d delivered %d, want 1", j, len(*log))
		}
		if err := reg.VerifyCertificate((*log)[0].cert); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTamperedPrePrepareRejected(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, nil)
	// Byzantine relay: flip payload bytes of pre-prepares to node 2.
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		if pp, ok := m.(*PrePrepare); ok && to.Index == 2 {
			bad := *pp
			bad.Payload = append([]byte("EVIL"), pp.Payload...)
			r.queue = append(r.queue, queued{from, to, &bad})
			return true
		}
		return false
	}
	if err := ins[0].Propose([]byte("e")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	// Node 2 rejects the tampered pre-prepare (digest mismatch) but still
	// commits via the other nodes' messages? No: without pre-prepare it
	// cannot commit. Nodes 0,1,3 have quorum 3 and commit.
	for j := range logs {
		if j == 2 {
			if len(*logs[j]) != 0 {
				t.Fatal("node 2 accepted tampered payload")
			}
			continue
		}
		if len(*logs[j]) != 1 {
			t.Fatalf("node %d delivered %d, want 1", j, len(*logs[j]))
		}
	}
}

func TestForgedLeaderSignatureRejected(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, nil)
	// Node 1 (not leader) forges a pre-prepare claiming to be from leader.
	forged := &PrePrepare{
		View: 0, Slot: 0, Digest: keys.Hash([]byte("fake")), Payload: []byte("fake"),
	}
	forged.Sig = keys.Signature{Signer: keys.NodeID{Group: 0, Index: 0}, Sig: make([]byte, 64)}
	ins[2].Handle(keys.NodeID{Group: 0, Index: 0}, forged)
	r.pump()
	if len(*logs[2]) != 0 {
		t.Fatal("forged pre-prepare accepted")
	}
	_ = ins
}

func TestViewChangeOnLeaderCrash(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
	})
	leader := keys.NodeID{Group: 0, Index: 0}
	// Leader proposes, then crashes before its pre-prepare reaches anyone.
	crashed := false
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		if crashed && (from == leader || to == leader) {
			return true
		}
		// Drop the commit phase of the first attempt to strand the proposal.
		if _, ok := m.(*Commit); ok && !crashed {
			return true
		}
		return false
	}
	if err := ins[0].Propose([]byte("stranded")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	crashed = true
	r.advance(time.Second)
	// View must have moved past 0 and the stranded entry must be delivered
	// (it was prepared by the correct replicas, so the new leader re-proposes
	// it).
	if ins[1].View() == 0 {
		t.Fatalf("no view change happened; view=%d", ins[1].View())
	}
	for j := 1; j < 4; j++ {
		if len(*logs[j]) != 1 || !bytes.Equal((*logs[j])[0].payload, []byte("stranded")) {
			t.Fatalf("node %d: prepared entry not re-proposed after view change: %v", j, *logs[j])
		}
	}
}

func TestViewChangeNewLeaderCanPropose(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
	})
	leader := keys.NodeID{Group: 0, Index: 0}
	crashed := true
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		return crashed && (from == leader || to == leader)
	}
	// Followers notice an outstanding client request via their own timers: we
	// simulate by having f+1 nodes vote directly (the protocol layer above
	// does this when forwarded requests stall). A single vote must NOT force
	// a view change — that would let one Byzantine node churn views — so two
	// votes (f+1) are needed before the rest join.
	ins[1].voteViewChange(1)
	r.advance(50 * time.Millisecond)
	if ins[2].View() != 0 {
		t.Fatal("a single view-change vote moved the view")
	}
	ins[2].voteViewChange(1)
	r.advance(time.Second)
	if !ins[1].IsLeader() {
		t.Fatalf("node 1 should lead view 1; view=%d", ins[1].View())
	}
	if err := ins[1].Propose([]byte("after-vc")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	for j := 1; j < 4; j++ {
		if len(*logs[j]) != 1 || !bytes.Equal((*logs[j])[0].payload, []byte("after-vc")) {
			t.Fatalf("node %d did not deliver in new view: %v", j, *logs[j])
		}
	}
}

func TestDeliveryOrderConsistencyAcrossNodes(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 7, nil)
	for i := 0; i < 10; i++ {
		if err := ins[0].Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r.pump()
	ref := *logs[0]
	if len(ref) != 10 {
		t.Fatalf("delivered %d, want 10", len(ref))
	}
	for j := 1; j < 7; j++ {
		log := *logs[j]
		if len(log) != len(ref) {
			t.Fatalf("node %d delivered %d, want %d", j, len(log), len(ref))
		}
		for i := range ref {
			if !bytes.Equal(log[i].payload, ref[i].payload) {
				t.Fatalf("node %d diverges at %d", j, i)
			}
		}
	}
}

func TestCertificateFromDeliverProtectsPayload(t *testing.T) {
	r, ins, logs, reg := buildGroup(t, 4, nil)
	if err := ins[0].Propose([]byte("protected")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	cert := (*logs[1])[0].cert
	if cert.Digest != keys.Hash([]byte("protected")) {
		t.Fatal("certificate digest mismatch")
	}
	// Tampering with the digest invalidates the certificate.
	cert2 := *cert
	cert2.Digest = keys.Hash([]byte("tampered"))
	if err := reg.VerifyCertificate(&cert2); err == nil {
		t.Fatal("tampered certificate verified")
	}
}

func TestSkipPrepareViewChange(t *testing.T) {
	// The meta (skip-prepare) instance must also survive leader loss.
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.SkipPrepare = true
		cfg.ViewChangeTimeout = 100 * time.Millisecond
	})
	leader := keys.NodeID{Group: 0, Index: 0}
	crashed := false
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		if crashed && (from == leader || to == leader) {
			return true
		}
		if _, ok := m.(*Commit); ok && !crashed {
			return true // strand the first proposal
		}
		return false
	}
	if err := ins[0].Propose([]byte("stranded-meta")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	crashed = true
	r.advance(time.Second)
	if ins[1].View() == 0 {
		t.Fatal("skip-prepare instance never changed view")
	}
	for j := 1; j < 4; j++ {
		if len(*logs[j]) != 1 || !bytes.Equal((*logs[j])[0].payload, []byte("stranded-meta")) {
			t.Fatalf("node %d: %v", j, *logs[j])
		}
	}
}

func TestViewChangeEscalation(t *testing.T) {
	// If the next leader is also dead, the view change must escalate past it.
	r, ins, logs, _ := buildGroup(t, 7, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 100 * time.Millisecond
	})
	dead := map[keys.NodeID]bool{
		{Group: 0, Index: 0}: true,
		{Group: 0, Index: 1}: true, // leader of view 1 is dead too
	}
	r.drop = func(from, to keys.NodeID, m Msg) bool { return dead[from] || dead[to] }
	// f+1 = 3 live replicas suspect view 1; its leader is dead, so the
	// escalation timer must carry them to view 2.
	ins[2].voteViewChange(1)
	ins[3].voteViewChange(1)
	ins[4].voteViewChange(1)
	r.advance(3 * time.Second)
	if ins[2].View() < 2 {
		t.Fatalf("view stuck at %d, want >= 2", ins[2].View())
	}
	if !ins[2].IsLeader() {
		t.Fatal("node 2 should lead view 2")
	}
	if err := ins[2].Propose([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	r.pump()
	if len(*logs[3]) != 1 {
		t.Fatal("no delivery in escalated view")
	}
}

func TestStaleViewMessagesIgnored(t *testing.T) {
	r, ins, logs, _ := buildGroup(t, 4, func(id keys.NodeID, cfg *Config) {
		cfg.ViewChangeTimeout = 50 * time.Millisecond
	})
	// Move everyone to view 1.
	ins[1].voteViewChange(1)
	ins[2].voteViewChange(1)
	r.advance(time.Second)
	if ins[1].View() != 1 {
		t.Fatalf("view = %d", ins[1].View())
	}
	// A view-0 pre-prepare from the old leader must be ignored now.
	before := len(*logs[2])
	pp := &PrePrepare{View: 0, Slot: 99, Digest: keys.Hash([]byte("old")), Payload: []byte("old")}
	ins[2].Handle(keys.NodeID{Group: 0, Index: 0}, pp)
	r.pump()
	if len(*logs[2]) != before {
		t.Fatal("stale-view pre-prepare delivered")
	}
}

func TestDeliverSkipsNoOpPayload(t *testing.T) {
	// An empty proposal delivers as proposed: no payload is special to PBFT.
	r, ins, logs, _ := buildGroup(t, 4, nil)
	if err := ins[0].Propose(nil); err != nil {
		t.Fatal(err)
	}
	r.pump()
	if len(*logs[1]) != 1 || (*logs[1])[0].payload != nil {
		t.Fatalf("no-op delivery wrong: %v", *logs[1])
	}
}

func TestEquivocatingLeaderFirstWinsLocally(t *testing.T) {
	// A Byzantine leader sending different payloads for the same slot cannot
	// make correct replicas deliver conflicting entries: at most one digest
	// can gather 2f+1 prepares.
	r, ins, logs, _ := buildGroup(t, 4, nil)
	// Split the group: node 1 sees payload A first, node 2 sees B first.
	seen := false
	r.drop = func(from, to keys.NodeID, m Msg) bool {
		if pp, ok := m.(*PrePrepare); ok && !seen && to.Index == 2 {
			bad := *pp
			other := []byte("B-payload")
			bad.Payload = other
			bad.Digest = keys.Hash(other)
			// Re-sign is impossible for the test (we lack the key here), so
			// node 2 will reject it — equivalent to never seeing A.
			r.queue = append(r.queue, queued{from, to, &bad})
			return true
		}
		return false
	}
	if err := ins[0].Propose([]byte("A-payload")); err != nil {
		t.Fatal(err)
	}
	seen = true
	r.pump()
	// Nodes 0,1,3 deliver A; node 2 delivers nothing (rejected forgery), and
	// crucially nobody delivers B.
	for j, log := range logs {
		for _, d := range *log {
			if !bytes.Equal(d.payload, []byte("A-payload")) {
				t.Fatalf("node %d delivered %q", j, d.payload)
			}
		}
	}
}

func BenchmarkThreePhaseCommit(b *testing.B) {
	pairs, reg, _ := keys.GenerateCluster([]int{4}, 11)
	members := make([]keys.NodeID, 4)
	for j := range members {
		members[j] = keys.NodeID{Group: 0, Index: j}
	}
	r := &router{instances: make(map[keys.NodeID]*Instance)}
	instances := make([]*Instance, 4)
	for j := 0; j < 4; j++ {
		cfg := Config{
			Self:     pairs[0][j],
			Members:  members,
			Registry: reg,
			Send:     r.send(members[j]),
			Deliver:  func(uint64, []byte, *keys.Certificate) {},
		}
		instances[j] = New(cfg)
		r.instances[members[j]] = instances[j]
	}
	payload := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := instances[0].Propose(payload); err != nil {
			b.Fatal(err)
		}
		r.pump()
	}
}
