package simnet

import (
	"time"

	"massbft/internal/keys"
	"massbft/internal/transport"
)

// FaultConfig describes the lossy-WAN fault layer (§VI-E extended):
// per-message probabilistic drop and duplication, extra latency jitter, and
// (via the Partition* methods) scheduled link partitions between groups.
//
// Every decision about a message is a draw: a hash of the network seed, the
// directed link (sender, receiver), the message's ordinal on that link and
// the decision's kind (drop, duplicate, jitter, corrupt). No decision reads
// another's state, so what happens to a link's k-th message depends on the
// seed and k alone — not on sends over any other link, nor on the order of
// the decisions. A run without faults makes no draw.
type FaultConfig struct {
	// WANDrop / WANDup are the per-message probabilities that an inter-group
	// message is lost in transit / delivered twice.
	WANDrop, WANDup float64
	// LANDrop is the intra-group loss probability (usually far smaller:
	// data-center fabrics rarely lose frames, but the knob exists so the
	// chunk LAN re-broadcast path can be exercised too).
	LANDrop float64
	// Jitter stretches each message's latency by up to this fraction (models
	// WAN route flap under congestion): lat·(1+U·Jitter), U a draw in [0, 1).
	Jitter float64
	// DupDelay separates the duplicate copy from the original; zero uses
	// half the link latency, at least 1 ms.
	DupDelay Time
}

// enabled reports whether any probabilistic fault is configured.
func (fc FaultConfig) enabled() bool {
	return fc.WANDrop > 0 || fc.WANDup > 0 || fc.LANDrop > 0 || fc.Jitter > 0
}

// ByzantineSender configures payload corruption on one node's outgoing
// messages: the one mechanism of every Byzantine behaviour in the tree, the
// §VI-E tampering nodes (cluster.ScheduleByzantine) included. The node's
// protocol code stays honest; what leaves it is rewritten on the wire.
type ByzantineSender struct {
	// CorruptRate is the per-message probability that the outgoing payload is
	// replaced by Corrupt's result.
	CorruptRate float64
	// Corrupt returns a tampered COPY of the payload, or nil to leave the
	// message untouched. It must never mutate the original: broadcast fan-out
	// shares one payload pointer across every recipient, so in-place mutation
	// would corrupt honest copies too. draw is a hash of the message's link
	// and ordinal, independent of the decision to corrupt: derive every
	// choice (which field, by how much) from it.
	Corrupt func(payload any, draw uint64) any
}

// byzSender is one node's live corruption state. lastPayload/lastOut detect
// equivocation: the same broadcast payload leaving this sender in differing
// versions for different peers. Payloads are pointers throughout the
// codebase, so the identity comparisons are cheap and never panic.
type byzSender struct {
	cfg         ByzantineSender
	lastPayload any
	lastOut     any
}

// faultState is the network's live fault layer; New makes it, with every
// rate zero.
type faultState struct {
	cfg  FaultConfig
	seed uint64 // the mixed network seed, the key of every draw
	// ordinals holds the next ordinal of each directed link (link.key) that
	// has carried a drawn message; links that never did have no entry.
	ordinals map[uint64]uint64
	// partitions holds currently-severed group pairs, key = normalized pair.
	partitions map[[2]int]bool
	// byz holds per-node sender corruption; installed via SetByzantineSender.
	byz map[keys.NodeID]*byzSender

	dropped          int64
	duplicated       int64
	partitionDropped int64
	corrupted        int64
	equivocated      int64
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// SetFaults sets the probabilistic fault rates. Partitions, Byzantine
// senders and link ordinals are kept.
func (nw *Network) SetFaults(fc FaultConfig) { nw.faults.cfg = fc }

// SetByzantineSender subjects one node's outgoing messages to payload
// corruption. Pass a zero CorruptRate (or nil Corrupt) to disable the node
// again.
func (nw *Network) SetByzantineSender(id keys.NodeID, cfg ByzantineSender) {
	if cfg.CorruptRate <= 0 || cfg.Corrupt == nil {
		delete(nw.faults.byz, id)
		return
	}
	nw.faults.byz[id] = &byzSender{cfg: cfg}
}

// The kinds of draw; one message's draws differ only in their kind.
const (
	drawDrop = iota
	drawDup
	drawJitter
	drawCorrupt
)

// link addresses one message: its directed link and its ordinal there.
type link struct{ key, ord uint64 }

// next gives msg the next ordinal of its directed link if the fault layer
// draws anything for it (a rate is set, or its sender is Byzantine), whatever
// then happens to it; otherwise it takes none and nothing will draw. The link
// key packs 16 bits per coordinate (the largest topology is 50 groups of 200
// nodes).
func (f *faultState) next(msg *transport.Message) link {
	if !f.cfg.enabled() && f.byz[msg.From] == nil {
		return link{}
	}
	if f.ordinals == nil {
		f.ordinals = make(map[uint64]uint64)
	}
	l := link{key: uint64(uint16(msg.From.Group))<<48 | uint64(uint16(msg.From.Index))<<32 |
		uint64(uint16(msg.To.Group))<<16 | uint64(uint16(msg.To.Index))}
	l.ord = f.ordinals[l.key]
	f.ordinals[l.key] = l.ord + 1
	return l
}

// hash is the draw of kind k for the message at l: splitmix64 over (seed,
// link, ordinal, kind).
func (f *faultState) hash(l link, k uint64) uint64 {
	return mix64(mix64(f.seed^l.key) ^ (l.ord<<2 | k))
}

// unit maps a hash to [0, 1) by its top 53 bits.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// mix64 is splitmix64 (the golden-ratio step, then its finalizer): the fault
// draws, scenarioRNG and GlobeTopology all hash with it.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// corruptOutbound applies a Byzantine sender's corruption to one departing
// message, counting corrupted payloads and equivocations (the same broadcast
// payload leaving in differing versions). A Byzantine sender corrupts at the
// source, whatever the link then does to the message.
func (f *faultState) corruptOutbound(l link, msg *transport.Message) {
	bz := f.byz[msg.From]
	if bz == nil {
		return
	}
	out := msg.Payload
	if h := f.hash(l, drawCorrupt); unit(h) < bz.cfg.CorruptRate {
		if c := bz.cfg.Corrupt(msg.Payload, mix64(h)); c != nil {
			out = c
		}
	}
	if msg.Payload == bz.lastPayload && out != bz.lastOut {
		f.equivocated++
	}
	bz.lastPayload, bz.lastOut = msg.Payload, out
	if out != msg.Payload {
		f.corrupted++
		msg.Payload = out
	}
}

// PartitionGroups severs the WAN link between groups a and b (both
// directions) until HealGroups is called. Intra-group traffic is unaffected.
func (nw *Network) PartitionGroups(a, b int) { nw.faults.partitions[pairKey(a, b)] = true }

// HealGroups restores the WAN link between groups a and b.
func (nw *Network) HealGroups(a, b int) { delete(nw.faults.partitions, pairKey(a, b)) }

// SchedulePartition severs the a<->b link at virtual time `at` and heals it
// at `healAt` (no heal is scheduled when healAt <= at).
func (nw *Network) SchedulePartition(at, healAt Time, a, b int) {
	nw.Schedule(at, func() { nw.PartitionGroups(a, b) })
	if healAt > at {
		nw.Schedule(healAt, func() { nw.HealGroups(a, b) })
	}
}

// Partitioned reports whether the WAN link between groups a and b is
// currently severed.
func (nw *Network) Partitioned(a, b int) bool { return nw.faults.partitions[pairKey(a, b)] }

// FaultStats returns cumulative fault-layer counters: messages dropped by
// loss sampling, extra deliveries from duplication, and messages discarded
// at a severed partition.
func (nw *Network) FaultStats() (dropped, duplicated, partitionDropped int64) {
	return nw.faults.dropped, nw.faults.duplicated, nw.faults.partitionDropped
}

// ByzantineStats returns cumulative sender-corruption counters: payloads
// replaced in flight, and equivocations (one broadcast payload leaving the
// sender in differing versions for different peers).
func (nw *Network) ByzantineStats() (corrupted, equivocated int64) {
	return nw.faults.corrupted, nw.faults.equivocated
}

// sample draws the drop and duplicate decisions for the message at l. A
// dropped message is never duplicated; LAN messages are never duplicated.
func (f *faultState) sample(l link, wan bool) (drop, dup bool) {
	dropP, dupP := f.cfg.LANDrop, 0.0
	if wan {
		dropP, dupP = f.cfg.WANDrop, f.cfg.WANDup
	}
	drop = dropP > 0 && unit(f.hash(l, drawDrop)) < dropP
	dup = !drop && dupP > 0 && unit(f.hash(l, drawDup)) < dupP
	return drop, dup
}

// extraJitter returns the additional latency of the message at l.
func (f *faultState) extraJitter(l link, base Time) Time {
	if f.cfg.Jitter <= 0 {
		return 0
	}
	return Time(unit(f.hash(l, drawJitter)) * f.cfg.Jitter * float64(base))
}

// dupDelay returns the extra delay of the duplicate copy.
func (f *faultState) dupDelay(base Time) Time {
	if f.cfg.DupDelay > 0 {
		return f.cfg.DupDelay
	}
	d := base / 2
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
