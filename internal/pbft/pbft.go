// Package pbft implements the local intra-group consensus MassBFT and all
// competitor protocols use (§II-A "Local Replication"): Practical Byzantine
// Fault Tolerance with pre-prepare/prepare/commit phases, 2f+1 quorum
// certificates, and view changes to replace a faulty leader.
//
// The paper also uses a two-phase variant for the global accept phase that
// skips prepare "because nodes do not need to agree on the consensus input,
// as it has already been certified" (Ziziphus-style); Config.SkipPrepare
// selects it.
//
// An Instance is a single-group replica state machine. It is transport
// agnostic: outgoing messages go through Config.Send, timers through
// Config.After, and committed slots are handed to Config.Deliver in strict
// slot order together with their quorum Certificate.
package pbft

import (
	"crypto/ed25519"
	"fmt"
	"time"

	"massbft/internal/keys"
)

// Phase labels for signed phase messages.
const (
	phasePrePrepare = iota
	phasePrepare
)

// Msg is the interface implemented by all PBFT wire messages.
type Msg interface {
	WireSize() int
	pbftMsg()
}

// PrePrepare is the leader's proposal for a slot in a view. An empty payload
// is a no-op proposal used to fill slot gaps after a view change; Deliver
// reports it with a nil payload and upper layers skip it.
type PrePrepare struct {
	View    uint64
	Slot    uint64
	Digest  keys.Digest
	Payload []byte
	Sig     keys.Signature
}

// Prepare is a replica's echo of the proposal digest.
type Prepare struct {
	View   uint64
	Slot   uint64
	Digest keys.Digest
	Sig    keys.Signature
}

// Commit carries the replica's certificate share for the digest. Shares sign
// the view-independent certificate message, so shares collected across a
// view change still assemble into one valid certificate.
type Commit struct {
	View   uint64
	Slot   uint64
	Digest keys.Digest
	Share  keys.Signature
}

// PreparedInfo describes one slot a replica prepared but has not committed.
type PreparedInfo struct {
	Slot    uint64
	Digest  keys.Digest
	Payload []byte
}

// ViewChange votes to replace the current leader. It reports every slot the
// sender prepared but has not yet committed so the new leader can re-propose
// them (classic PBFT's P set).
type ViewChange struct {
	NewView  uint64
	Prepared []PreparedInfo
	Sig      keys.Signature
}

// NewView announces the new leader's installed view together with
// re-proposals for all potentially-committed slots and no-op fillers for
// gaps.
type NewView struct {
	View        uint64
	Reproposals []*PrePrepare
	Sig         keys.Signature
}

// SlotRequest asks a peer for certified slots the sender missed. Message loss
// has no retransmission in the three normal phases, so a replica that missed
// votes for a slot (or the NewView announcement itself) would otherwise stall
// its delivery cursor forever while the rest of the group moves on.
type SlotRequest struct {
	From uint64
}

// CommittedSlot is one delivered slot in a SlotReply: payload plus the quorum
// certificate that proves it, so the receiver trusts content, not the peer.
type CommittedSlot struct {
	Slot    uint64
	Payload []byte
	Cert    *keys.Certificate
}

// SlotReply carries missed certified slots in order, plus the latest NewView
// announcement so a replica stranded in an old view can rejoin the current one
// through the normal (signature-checked) path.
type SlotReply struct {
	NV    *NewView
	Slots []CommittedSlot
}

func (*PrePrepare) pbftMsg()  {}
func (*Prepare) pbftMsg()     {}
func (*Commit) pbftMsg()      {}
func (*ViewChange) pbftMsg()  {}
func (*NewView) pbftMsg()     {}
func (*SlotRequest) pbftMsg() {}
func (*SlotReply) pbftMsg()   {}

const sigWire = ed25519.SignatureSize + 8 // signature + signer id

// WireSize returns the serialized size in bytes.
func (m *PrePrepare) WireSize() int { return 16 + 32 + len(m.Payload) + sigWire }

// WireSize returns the serialized size in bytes.
func (m *Prepare) WireSize() int { return 16 + 32 + sigWire }

// WireSize returns the serialized size in bytes.
func (m *Commit) WireSize() int { return 16 + 32 + sigWire }

// WireSize returns the serialized size in bytes.
func (m *ViewChange) WireSize() int {
	n := 8 + sigWire
	for _, p := range m.Prepared {
		n += 8 + 32 + len(p.Payload)
	}
	return n
}

// WireSize returns the serialized size in bytes.
func (m *NewView) WireSize() int {
	n := 8 + sigWire
	for _, pp := range m.Reproposals {
		n += pp.WireSize()
	}
	return n
}

// WireSize returns the serialized size in bytes.
func (m *SlotRequest) WireSize() int { return 8 }

// WireSize returns the serialized size in bytes.
func (m *SlotReply) WireSize() int {
	n := 1
	if m.NV != nil {
		n += m.NV.WireSize()
	}
	for _, s := range m.Slots {
		n += 8 + len(s.Payload)
		if s.Cert != nil {
			n += s.Cert.Size()
		}
	}
	return n
}

// Config wires an Instance to its environment.
type Config struct {
	// Self is this replica's key pair; Self.ID.Group selects the group.
	Self *keys.KeyPair
	// Members lists the group's node IDs in index order.
	Members []keys.NodeID
	// Registry verifies member signatures.
	Registry *keys.Registry
	// Send transmits a message to one member (the transport models size).
	Send func(to keys.NodeID, m Msg)
	// Deliver is called exactly once per slot, in slot order, on every
	// correct replica, with the committed payload (nil for no-op slots) and
	// its quorum certificate.
	Deliver func(slot uint64, payload []byte, cert *keys.Certificate)
	// After schedules fn after d of virtual time; required when
	// ViewChangeTimeout is set.
	After func(d time.Duration, fn func())
	// ViewChangeTimeout is how long a replica waits for an outstanding
	// proposal to commit before voting to change views. Zero disables view
	// changes.
	ViewChangeTimeout time.Duration
	// SkipPrepare selects the two-phase variant used for the global accept
	// phase (§II-A): pre-prepare then commit.
	SkipPrepare bool
	// Validate, when non-nil, vets a non-empty proposal payload before this
	// replica accepts the pre-prepare and votes on it. Returning false drops
	// the proposal — the slot stalls and the view-change timeout removes the
	// leader — so a Byzantine leader cannot get application-invalid content
	// certified past 2f+1 honest validators. Nil payloads (view-change no-op
	// filler) bypass it. Runs on the Handle thread.
	Validate func(payload []byte) bool
	// OnViewChange, when non-nil, is notified after a new view installs.
	OnViewChange func(view uint64)
	// Trace, when non-nil, observes slot phase transitions on this replica:
	// phase is "pre-prepare" (proposal accepted), "prepared" (commit share
	// sent), or "committed" (quorum reached, about to deliver). Purely
	// observational — the hook must not feed back into the protocol.
	Trace func(slot uint64, phase string, payload []byte)
}

type slotState struct {
	digest     keys.Digest
	payload    []byte
	prePrepare bool
	prepares   map[keys.NodeID]bool
	commits    map[keys.NodeID]keys.Signature
	committed  bool
	delivered  bool
}

// Instance is one replica's PBFT state machine.
type Instance struct {
	cfg   Config
	n, f  int
	group int

	view     uint64
	nextSlot uint64 // next unassigned slot (leader) / highest seen+1
	execSlot uint64 // next slot to deliver
	slots    map[uint64]*slotState
	vcVotes  map[uint64]map[keys.NodeID]*ViewChange
	timerSeq uint64      // invalidates stale progress timers
	vcTarget uint64      // highest view we have voted for
	lastVC   *ViewChange // our vote for vcTarget, kept for re-broadcast

	// Catch-up state: delivered slots retained for serving SlotRequests, the
	// latest NewView (so stranded replicas can rejoin the view), a hint that
	// higher-view traffic was seen, and the rotating request counter.
	delivered       map[uint64]CommittedSlot
	lastNewView     *NewView
	viewHint        uint64
	catchupAttempts int
}

// New creates a PBFT replica instance.
func New(cfg Config) *Instance {
	n := len(cfg.Members)
	return &Instance{
		cfg:       cfg,
		n:         n,
		f:         (n - 1) / 3,
		group:     cfg.Self.ID.Group,
		slots:     make(map[uint64]*slotState),
		vcVotes:   make(map[uint64]map[keys.NodeID]*ViewChange),
		delivered: make(map[uint64]CommittedSlot),
	}
}

// Quorum returns the 2f+1 threshold.
func (in *Instance) Quorum() int { return 2*in.f + 1 }

// View returns the current view number.
func (in *Instance) View() uint64 { return in.view }

// Leader returns the leader of the given view.
func (in *Instance) Leader(view uint64) keys.NodeID {
	return in.cfg.Members[int(view)%in.n]
}

// IsLeader reports whether this replica leads the current view.
func (in *Instance) IsLeader() bool { return in.Leader(in.view) == in.cfg.Self.ID }

// Propose starts consensus on payload. Only the current leader may call it;
// other callers get an error so the protocol layer can forward the request.
func (in *Instance) Propose(payload []byte) error {
	if !in.IsLeader() {
		return fmt.Errorf("pbft: %v is not the leader of view %d", in.cfg.Self.ID, in.view)
	}
	slot := in.nextSlot
	in.nextSlot++
	in.proposeAt(slot, payload)
	return nil
}

func (in *Instance) proposeAt(slot uint64, payload []byte) {
	d := keys.Hash(payload)
	pp := &PrePrepare{
		View:    in.view,
		Slot:    slot,
		Digest:  d,
		Payload: payload,
		Sig:     in.sign(phaseMsg(phasePrePrepare, in.view, slot, d)),
	}
	in.broadcast(pp)
	in.onPrePrepare(in.cfg.Self.ID, pp)
}

func (in *Instance) sign(msg []byte) keys.Signature {
	return keys.Signature{Signer: in.cfg.Self.ID, Sig: in.cfg.Self.Sign(msg)}
}

func (in *Instance) verify(sig keys.Signature, msg []byte) bool {
	return in.cfg.Registry.Verify(sig.Signer, msg, sig.Sig)
}

// phaseMsg is the canonical byte string signed for each phase message.
func phaseMsg(phase int, view, slot uint64, d keys.Digest) []byte {
	buf := make([]byte, 0, 1+16+len(d))
	buf = append(buf, byte(phase))
	buf = appendUint64(buf, view)
	buf = appendUint64(buf, slot)
	buf = append(buf, d[:]...)
	return buf
}

func appendUint64(b []byte, v uint64) []byte {
	for i := 7; i >= 0; i-- {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

func (in *Instance) broadcast(m Msg) {
	for _, id := range in.cfg.Members {
		if id != in.cfg.Self.ID {
			in.cfg.Send(id, m)
		}
	}
}

func (in *Instance) slot(s uint64) *slotState {
	st, ok := in.slots[s]
	if !ok {
		st = &slotState{
			prepares: make(map[keys.NodeID]bool),
			commits:  make(map[keys.NodeID]keys.Signature),
		}
		in.slots[s] = st
	}
	return st
}

// Handle processes a message from another replica. from must be the verified
// transport-level sender; signatures inside the message are checked against
// the registry regardless.
func (in *Instance) Handle(from keys.NodeID, m Msg) {
	switch msg := m.(type) {
	case *PrePrepare:
		in.noteView(msg.View)
		in.onPrePrepare(from, msg)
	case *Prepare:
		in.noteView(msg.View)
		in.onPrepare(msg)
	case *Commit:
		in.noteView(msg.View)
		in.onCommit(msg)
	case *ViewChange:
		in.onViewChange(msg)
	case *NewView:
		in.onNewView(msg)
	case *SlotRequest:
		in.onSlotRequest(from, msg)
	case *SlotReply:
		in.onSlotReply(msg)
	}
}

// noteView records the highest view seen in any phase message. The value is
// unverified and never changes protocol state — it only makes Behind() true,
// triggering a catch-up request whose reply is fully certificate-checked.
func (in *Instance) noteView(v uint64) {
	if v > in.viewHint {
		in.viewHint = v
	}
}

func (in *Instance) onPrePrepare(from keys.NodeID, pp *PrePrepare) {
	if pp.View != in.view || pp.Slot < in.execSlot {
		return // stale view, or a slot already delivered (state was GC'd)
	}
	if in.vcTarget > in.view {
		// Voted to leave this view: the view-change vote is a snapshot of our
		// prepared set, so acquiring NEW prepared/committed state afterwards
		// is unsafe — a slot could commit here that no vote reports, and the
		// new view would then certify a different payload at the same slot
		// (classic PBFT stops processing old-view phase messages after
		// sending VIEW-CHANGE for exactly this reason).
		return
	}
	if from != in.Leader(pp.View) && from != in.cfg.Self.ID {
		return // only the leader may pre-prepare
	}
	if pp.Sig.Signer != in.Leader(pp.View) ||
		!in.verify(pp.Sig, phaseMsg(phasePrePrepare, pp.View, pp.Slot, pp.Digest)) {
		return
	}
	if keys.Hash(pp.Payload) != pp.Digest {
		return // payload does not match digest
	}
	if len(pp.Payload) > 0 && in.cfg.Validate != nil && !in.cfg.Validate(pp.Payload) {
		return // application-invalid proposal: refuse to vote
	}
	st := in.slot(pp.Slot)
	if st.prePrepare {
		// Duplicate (first proposal for the slot wins in this view). If the
		// slot already committed here and a new view is re-proposing it, the
		// peers re-running consensus need our share — commit shares are
		// certificate signatures over (group, digest), valid across views.
		if st.committed && st.digest == pp.Digest {
			if share, ok := st.commits[in.cfg.Self.ID]; ok {
				in.broadcast(&Commit{View: in.view, Slot: pp.Slot, Digest: st.digest, Share: share})
			}
		}
		return
	}
	st.prePrepare = true
	st.digest = pp.Digest
	st.payload = pp.Payload
	if in.nextSlot <= pp.Slot {
		in.nextSlot = pp.Slot + 1
	}
	if in.cfg.Trace != nil {
		in.cfg.Trace(pp.Slot, "pre-prepare", pp.Payload)
	}
	in.armProgressTimer(pp.Slot)

	if in.cfg.SkipPrepare {
		in.sendCommit(pp.Slot, pp.Digest, st)
		return
	}
	p := &Prepare{
		View: pp.View, Slot: pp.Slot, Digest: pp.Digest,
		Sig: in.sign(phaseMsg(phasePrepare, pp.View, pp.Slot, pp.Digest)),
	}
	in.broadcast(p)
	in.onPrepare(p) // count own prepare
}

func (in *Instance) onPrepare(p *Prepare) {
	if p.View != in.view || p.Slot < in.execSlot || in.cfg.SkipPrepare {
		return
	}
	if in.vcTarget > in.view {
		return // voted to leave this view (see onPrePrepare)
	}
	if !in.verify(p.Sig, phaseMsg(phasePrepare, p.View, p.Slot, p.Digest)) {
		return
	}
	st := in.slot(p.Slot)
	if st.prePrepare && st.digest != p.Digest {
		return
	}
	st.prepares[p.Sig.Signer] = true
	in.maybeCommitPhase(p.Slot, st)
}

func (in *Instance) maybeCommitPhase(slot uint64, st *slotState) {
	// Prepared: pre-prepare plus 2f+1 matching prepares (incl. our own).
	if !st.prePrepare || len(st.prepares) < in.Quorum() || st.committed {
		return
	}
	if _, already := st.commits[in.cfg.Self.ID]; already {
		return
	}
	in.sendCommit(slot, st.digest, st)
}

func (in *Instance) sendCommit(slot uint64, d keys.Digest, st *slotState) {
	if in.cfg.Trace != nil {
		in.cfg.Trace(slot, "prepared", st.payload)
	}
	share := keys.SignCertificate(in.cfg.Self, in.group, d)
	c := &Commit{View: in.view, Slot: slot, Digest: d, Share: share}
	in.broadcast(c)
	in.onCommit(c)
}

func (in *Instance) onCommit(c *Commit) {
	if c.View != in.view || c.Slot < in.execSlot {
		return
	}
	if in.vcTarget > in.view {
		return // voted to leave this view (see onPrePrepare)
	}
	st := in.slot(c.Slot)
	if st.prePrepare && st.digest != c.Digest {
		return
	}
	// Commit shares double as certificate signatures; verify as such.
	probe := &keys.Certificate{Group: in.group, Digest: c.Digest, Sigs: []keys.Signature{c.Share}}
	if err := in.cfg.Registry.VerifyCertificate(probe); err != nil &&
		err != keys.ErrCertTooFewSigs {
		return
	}
	st.commits[c.Share.Signer] = c.Share
	if !st.committed && st.prePrepare && len(st.commits) >= in.Quorum() {
		st.committed = true
		in.timerSeq++ // progress: cancel pending view-change timers
		if in.cfg.Trace != nil {
			in.cfg.Trace(c.Slot, "committed", st.payload)
		}
		in.deliverReady()
	}
}

func (in *Instance) deliverReady() {
	for {
		st, ok := in.slots[in.execSlot]
		if !ok || !st.committed || st.delivered {
			return
		}
		st.delivered = true
		cert := &keys.Certificate{Group: in.group, Digest: st.digest}
		for _, sig := range st.commits {
			cert.Sigs = append(cert.Sigs, sig)
		}
		cert.SortSigs()
		payload := st.payload
		if len(payload) == 0 {
			payload = nil // no-op filler slot
		}
		in.cfg.Deliver(in.execSlot, payload, cert)
		in.logDelivered(CommittedSlot{Slot: in.execSlot, Payload: payload, Cert: cert})
		// Delivered slot state is never consulted again (the execSlot guards
		// drop late messages for it); free it so long runs stay bounded.
		delete(in.slots, in.execSlot)
		in.execSlot++
		in.catchupAttempts = 0
	}
}

// logDelivered retains a delivered slot for serving catch-up requests, bounded
// to catchupRetain slots; older gaps fall back to application-level rejoin.
func (in *Instance) logDelivered(cs CommittedSlot) {
	in.delivered[cs.Slot] = cs
	if cs.Slot >= catchupRetain {
		delete(in.delivered, cs.Slot-catchupRetain)
	}
}

// Retained returns how many delivered slots the catch-up log holds.
func (in *Instance) Retained() int { return len(in.delivered) }

const (
	// catchupRetain bounds the per-instance delivered-slot log.
	catchupRetain = 512
	// catchupBurst bounds one SlotReply; the requester asks again if still
	// behind.
	catchupBurst = 64
)

// Behind reports whether this replica appears to be missing deliveries:
// in-flight slots exist beyond the delivery cursor, or traffic from a higher
// view arrived (the NewView announcement may have been lost). Callers combine
// it with a stall timer — under normal pipelining both conditions occur
// transiently.
func (in *Instance) Behind() bool {
	return in.viewHint > in.view || in.nextSlot > in.execSlot
}

// Catchup sends one SlotRequest for the delivery cursor to a rotating group
// peer. The protocol layer calls it when the cursor stalls while Behind().
func (in *Instance) Catchup() {
	if in.n < 2 {
		return
	}
	peer := in.cfg.Members[(in.cfg.Self.ID.Index+1+in.catchupAttempts)%in.n]
	if peer == in.cfg.Self.ID {
		peer = in.cfg.Members[(peer.Index+1)%in.n]
	}
	in.catchupAttempts++
	in.cfg.Send(peer, &SlotRequest{From: in.execSlot})
}

// onSlotRequest serves delivered slots from the retained log, together with
// the latest NewView so a view-stranded replica can rejoin.
func (in *Instance) onSlotRequest(from keys.NodeID, m *SlotRequest) {
	if from == in.cfg.Self.ID {
		return
	}
	rep := &SlotReply{NV: in.lastNewView}
	for s := m.From; s < m.From+catchupBurst; s++ {
		cs, ok := in.delivered[s]
		if !ok {
			break
		}
		rep.Slots = append(rep.Slots, cs)
	}
	if rep.NV == nil && len(rep.Slots) == 0 {
		return
	}
	in.cfg.Send(from, rep)
}

// onSlotReply ingests certified slots at the delivery cursor. Nothing is
// trusted from the peer: each slot must carry a valid quorum certificate over
// its payload digest, and the NewView goes through the normal signature check.
func (in *Instance) onSlotReply(m *SlotReply) {
	if m.NV != nil {
		in.onNewView(m.NV)
	}
	progressed := false
	for _, cs := range m.Slots {
		if cs.Slot != in.execSlot {
			continue
		}
		payload := cs.Payload
		if len(payload) == 0 {
			payload = nil
		}
		if cs.Cert == nil || cs.Cert.Group != in.group ||
			cs.Cert.Digest != keys.Hash(payload) ||
			in.cfg.Registry.VerifyCertificate(cs.Cert) != nil {
			continue
		}
		delete(in.slots, cs.Slot)
		in.cfg.Deliver(cs.Slot, payload, cs.Cert)
		in.logDelivered(CommittedSlot{Slot: cs.Slot, Payload: payload, Cert: cs.Cert})
		in.execSlot++
		if in.nextSlot < in.execSlot {
			in.nextSlot = in.execSlot
		}
		progressed = true
	}
	if progressed {
		in.timerSeq++ // progress: cancel pending view-change timers
		in.catchupAttempts = 0
		in.deliverReady() // locally-committed later slots may now be contiguous
	}
}

// --- View change ---

func (in *Instance) armProgressTimer(slot uint64) {
	if in.cfg.ViewChangeTimeout <= 0 || in.cfg.After == nil {
		return
	}
	seq := in.timerSeq
	in.cfg.After(in.cfg.ViewChangeTimeout, func() {
		if in.timerSeq != seq {
			return // progress was made since
		}
		if st := in.slots[slot]; st != nil && st.committed {
			return
		}
		in.voteViewChange(in.view + 1)
	})
}

func (in *Instance) voteViewChange(newView uint64) {
	if newView <= in.view {
		return
	}
	if newView <= in.vcTarget {
		// Re-broadcast the stored vote: view-change messages have no other
		// retransmission path, and a group whose f+1 votes were all lost to
		// the network would otherwise stay wedged in the old view forever
		// (each replica's first and only vote already absorbed by the target
		// guard). Pure re-send — no self-processing, no new timers.
		if in.lastVC != nil && in.lastVC.NewView > in.view {
			in.broadcast(in.lastVC)
		}
		return
	}
	in.vcTarget = newView
	vc := &ViewChange{NewView: newView}
	// Report every prepared slot (classic PBFT P set). Committed-but-
	// undelivered slots are included too: they anchor the new view's maxSlot
	// so that a slot which never certified below them is re-proposed (as the
	// surviving prepared payload, or a no-op when no voter prepared it)
	// instead of being left as a permanent hole under the committed range.
	for s := in.execSlot; s < in.nextSlot; s++ {
		st := in.slots[s]
		if st == nil || !st.prePrepare {
			continue
		}
		if st.committed || in.cfg.SkipPrepare || len(st.prepares) >= in.Quorum() {
			vc.Prepared = append(vc.Prepared, PreparedInfo{Slot: s, Digest: st.digest, Payload: st.payload})
		}
	}
	vc.Sig = in.sign(viewChangeMsg(vc))
	in.lastVC = vc
	in.broadcast(vc)
	in.onViewChange(vc)
	// Escalate if this view change does not complete either.
	if in.cfg.After != nil && in.cfg.ViewChangeTimeout > 0 {
		seq := in.timerSeq
		in.cfg.After(2*in.cfg.ViewChangeTimeout, func() {
			if in.timerSeq == seq && in.view < newView {
				in.voteViewChange(newView + 1)
			}
		})
	}
}

func viewChangeMsg(vc *ViewChange) []byte {
	buf := []byte{0x10}
	buf = appendUint64(buf, vc.NewView)
	for _, p := range vc.Prepared {
		buf = appendUint64(buf, p.Slot)
		buf = append(buf, p.Digest[:]...)
	}
	return buf
}

func (in *Instance) onViewChange(vc *ViewChange) {
	if vc.NewView <= in.view {
		return
	}
	if !in.verify(vc.Sig, viewChangeMsg(vc)) {
		return
	}
	votes := in.vcVotes[vc.NewView]
	if votes == nil {
		votes = make(map[keys.NodeID]*ViewChange)
		in.vcVotes[vc.NewView] = votes
	}
	votes[vc.Sig.Signer] = vc
	// Join the view change once f+1 replicas vote: at least one is correct.
	if len(votes) == in.f+1 {
		in.voteViewChange(vc.NewView)
	}
	// Already suspicious ourselves: adopt a higher target so escalation
	// timers that diverged per replica (each bumping its own target while
	// votes were being lost) converge on the maximum, where a quorum can
	// actually form. Only replicas that independently timed out follow a
	// single vote up, so a Byzantine node can redirect but never initiate a
	// view change.
	if in.vcTarget > in.view && vc.NewView > in.vcTarget {
		in.voteViewChange(vc.NewView)
	}
	if len(votes) >= in.Quorum() && in.Leader(vc.NewView) == in.cfg.Self.ID {
		in.installNewView(vc.NewView, votes)
	}
}

func (in *Instance) installNewView(view uint64, votes map[keys.NodeID]*ViewChange) {
	if view <= in.view {
		return
	}
	// Union of prepared slots across votes; highest-digest-per-slot is
	// unambiguous because a slot can only prepare one digest per view and
	// conflicting views cannot both prepare (quorum intersection).
	prepared := make(map[uint64]PreparedInfo)
	maxSlot := in.execSlot
	for _, vc := range votes {
		for _, p := range vc.Prepared {
			prepared[p.Slot] = p
			if p.Slot+1 > maxSlot {
				maxSlot = p.Slot + 1
			}
		}
	}
	nv := &NewView{View: view, Sig: in.sign(newViewMsg(view))}
	for s := in.execSlot; s < maxSlot; s++ {
		var payload []byte
		var d keys.Digest
		if p, ok := prepared[s]; ok {
			payload, d = p.Payload, p.Digest
		} else {
			payload, d = nil, keys.Hash(nil) // no-op filler for gap slots
		}
		pp := &PrePrepare{
			View: view, Slot: s, Digest: d, Payload: payload,
			Sig: in.sign(phaseMsg(phasePrePrepare, view, s, d)),
		}
		nv.Reproposals = append(nv.Reproposals, pp)
	}
	in.enterView(view)
	in.lastNewView = nv
	in.broadcast(nv)
	for _, pp := range nv.Reproposals {
		in.onPrePrepare(in.cfg.Self.ID, pp)
	}
}

func newViewMsg(view uint64) []byte {
	return appendUint64([]byte{0x11}, view)
}

func (in *Instance) onNewView(nv *NewView) {
	if nv.View <= in.view {
		return
	}
	if nv.Sig.Signer != in.Leader(nv.View) || !in.verify(nv.Sig, newViewMsg(nv.View)) {
		return
	}
	in.enterView(nv.View)
	in.lastNewView = nv
	for _, pp := range nv.Reproposals {
		in.onPrePrepare(in.Leader(nv.View), pp)
	}
}

func (in *Instance) enterView(view uint64) {
	in.view = view
	in.timerSeq++
	// Uncommitted slot state from the old view is invalid in the new view.
	for s, st := range in.slots {
		if !st.committed {
			delete(in.slots, s)
		}
	}
	in.nextSlot = in.execSlot
	for s, st := range in.slots {
		if st.committed && s+1 > in.nextSlot {
			in.nextSlot = s + 1
		}
	}
	delete(in.vcVotes, view)
	if in.cfg.OnViewChange != nil {
		in.cfg.OnViewChange(view)
	}
}

// --- State transfer (checkpointed node rejoin) ---

// NextDeliverSlot returns the next slot this replica will deliver.
func (in *Instance) NextDeliverSlot() uint64 { return in.execSlot }

// ExportedSlot is the portable image of one undelivered slot: the proposal
// plus every prepare/commit vote the exporting replica has collected. Shares
// are the original signatures, so the importer's certificates stay valid.
type ExportedSlot struct {
	Slot      uint64
	Digest    keys.Digest
	Payload   []byte
	Prepares  []keys.NodeID
	Commits   []keys.Signature
	Committed bool
}

// WireSize returns the serialized size in bytes.
func (s *ExportedSlot) WireSize() int {
	return 8 + 32 + len(s.Payload) + 8*len(s.Prepares) + sigWire*len(s.Commits) + 1
}

// Export snapshots the instance for a state transfer: the current view, the
// next slot to deliver, and every in-flight slot with the votes collected so
// far. Slots below execSlot are already delivered and are represented by the
// application-level checkpoint instead.
func (in *Instance) Export() (view, execSlot uint64, inflight []ExportedSlot) {
	for s := in.execSlot; s < in.nextSlot; s++ {
		st := in.slots[s]
		if st == nil || !st.prePrepare {
			continue
		}
		ex := ExportedSlot{Slot: s, Digest: st.digest, Payload: st.payload, Committed: st.committed}
		for id := range st.prepares {
			ex.Prepares = append(ex.Prepares, id)
		}
		sortNodeIDs(ex.Prepares)
		for _, sig := range st.commits {
			ex.Commits = append(ex.Commits, sig)
		}
		sortSigs(ex.Commits)
		inflight = append(inflight, ex)
	}
	return in.view, in.execSlot, inflight
}

// Install resets the replica to an exported image: it jumps to the given view
// and delivery slot (the application state up to execSlot comes from the
// checkpoint) and seeds the in-flight slots, broadcasting this replica's own
// votes for the uncommitted ones so it resumes participating immediately.
// The image is trusted as-is (the checkpoint transfer trusts the serving
// peer; a production system would cross-check it against the certified
// ledger).
func (in *Instance) Install(view, execSlot uint64, inflight []ExportedSlot) {
	in.view = view
	in.execSlot = execSlot
	in.nextSlot = execSlot
	in.slots = make(map[uint64]*slotState)
	in.vcVotes = make(map[uint64]map[keys.NodeID]*ViewChange)
	in.vcTarget = view
	in.lastVC = nil
	in.timerSeq++
	in.delivered = make(map[uint64]CommittedSlot)
	in.viewHint = view
	in.catchupAttempts = 0
	for _, ex := range inflight {
		if ex.Slot < execSlot {
			continue
		}
		st := in.slot(ex.Slot)
		st.prePrepare = true
		st.digest = ex.Digest
		st.payload = ex.Payload
		for _, id := range ex.Prepares {
			st.prepares[id] = true
		}
		for _, sig := range ex.Commits {
			st.commits[sig.Signer] = sig
		}
		st.committed = ex.Committed
		if ex.Slot+1 > in.nextSlot {
			in.nextSlot = ex.Slot + 1
		}
		if st.committed {
			continue
		}
		in.armProgressTimer(ex.Slot)
		// Re-join the vote: peers that already voted will not resend, but our
		// own share may complete the quorum (their shares were exported).
		if in.cfg.SkipPrepare {
			if _, done := st.commits[in.cfg.Self.ID]; !done {
				in.sendCommit(ex.Slot, ex.Digest, st)
			}
		} else {
			p := &Prepare{
				View: in.view, Slot: ex.Slot, Digest: ex.Digest,
				Sig: in.sign(phaseMsg(phasePrepare, in.view, ex.Slot, ex.Digest)),
			}
			in.broadcast(p)
			in.onPrepare(p)
		}
	}
	in.deliverReady()
}

func sortNodeIDs(ids []keys.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func sortSigs(sigs []keys.Signature) {
	for i := 1; i < len(sigs); i++ {
		for j := i; j > 0 && less(sigs[j].Signer, sigs[j-1].Signer); j-- {
			sigs[j], sigs[j-1] = sigs[j-1], sigs[j]
		}
	}
}

func less(a, b keys.NodeID) bool {
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	return a.Index < b.Index
}

// SuspectLeader votes to replace the current leader (view+1). Protocol
// layers call it when they observe leader silence that the instance's own
// progress timers cannot see (e.g. the leader stops proposing entirely).
// The view changes only if f+1 replicas concur.
func (in *Instance) SuspectLeader() {
	in.voteViewChange(in.view + 1)
}
