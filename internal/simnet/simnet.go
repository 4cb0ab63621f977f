// Package simnet is a deterministic discrete-event emulator of the paper's
// physical environment (§VI): groups of nodes in data centers, a fast LAN
// inside each data center, and a per-node bandwidth-limited WAN uplink and
// downlink between data centers. Protocols run as event handlers on virtual
// time; the emulator models link latency, serialization delay (token-bucket
// style FIFO interfaces), per-node CPU cost, node crashes, group crashes,
// and message tampering (Byzantine senders). One Topology holds every
// latency and each group's WAN bandwidth; partial synchrony (§III-A) is a
// latency change scheduled at the global stabilization time.
//
// Because the emulator is single-threaded over a priority queue of events,
// every run is bit-for-bit reproducible given the same seed — which is what
// lets the benchmark harness regenerate the paper's figures as stable
// series.
//
// The event queue is a hierarchical indexed timer wheel (see wheel.go) with
// pooled event objects and a dense group-indexed node table, sized for
// O(10k)-node topologies.
package simnet

import (
	"fmt"
	"time"

	"massbft/internal/keys"
	"massbft/internal/transport"
)

// Time is virtual time elapsed since the start of the run.
type Time = time.Duration

// Config describes the emulated environment.
type Config struct {
	// GroupSizes[i] is the number of nodes in group i.
	GroupSizes []int
	// Topology is the network: latencies, LAN included, and per-group WAN
	// bandwidth. It must cover every group; nil is NewTopology(len(GroupSizes)).
	Topology *Topology
	// Seed keys every fault draw (see FaultConfig). Runs with the same seed
	// are identical; a run without faults does not read it.
	Seed int64
}

// NewTopology's values, and the per-node LAN bandwidth every node has.
const (
	DefaultWANDelay     = 15 * time.Millisecond // one way; ~30 ms RTT (nationwide)
	DefaultLANDelay     = 200 * time.Microsecond
	DefaultWANBandwidth = 20e6 / 8 // 20 Mbps in bytes/s, the paper's NIC limit
	LANBandwidth        = 2.5e9 / 8
)

// iface is one direction of one network interface: a FIFO serializer for
// bulk traffic plus a priority lane for small control messages (which pay
// their serialization time but skip the bulk queue).
type iface struct {
	bandwidth float64 // bytes per second
	free      Time    // time at which the interface finishes its bulk queue
	prioFree  Time    // priority-lane clearing time
	bytes     int64   // total bytes through this interface
}

func (f *iface) transmitLane(now Time, size int, priority bool) (done Time) {
	tx := Time(float64(size) / f.bandwidth * float64(time.Second))
	f.bytes += int64(size)
	if priority {
		start := now
		if f.prioFree > start {
			start = f.prioFree
		}
		f.prioFree = start + tx
		return f.prioFree
	}
	start := now
	if f.free > start {
		start = f.free
	}
	f.free = start + tx
	return f.free
}

// reset clears the interface's queue bookings (a rebooted machine's NIC
// queues don't survive the reboot). The cumulative byte counter is traffic
// accounting, not state, and is preserved.
func (f *iface) reset() { f.free, f.prioFree = 0, 0 }

// Node is one emulated machine: a transport.Endpoint whose deliveries go to
// the transport.Handler installed with SetHandler.
type Node struct {
	ID      keys.NodeID
	nw      *Network
	handler transport.Handler

	wanUp, wanDown iface
	lanUp, lanDown iface

	busyUntil Time
	crashed   bool

	// outbound, when non-nil, may tamper with or drop (return false)
	// outgoing messages; used to model Byzantine senders.
	outbound func(msg *transport.Message) bool
}

// ProbeSample describes one delivered message copy for the tracing layer:
// when it was enqueued at the sender, when its uplink serialization
// finished, when this copy fully arrived at the receiver's downlink, how
// long it waited behind earlier traffic in the sender's token-bucket lane,
// and how far ahead the sender's bulk lane was booked at enqueue time
// (queue depth). UplinkBytes samples the cumulative bytes through the
// sender's uplink after this message (bytes-in-flight accounting).
//
// Every delivered copy is probed: loopback sends fire a sample (Loopback
// true, no NIC involvement, so Depart equals Enqueue), and a fault-layer
// duplication fires a second sample for the duplicate copy (Duplicate
// true) with that copy's own Arrive. The embedded Message is the one the
// receiver's handler is given.
type ProbeSample struct {
	transport.Message
	WAN         bool
	Priority    bool
	Loopback    bool
	Duplicate   bool
	Enqueue     Time
	Depart      Time
	Arrive      Time
	QueueWait   Time
	Backlog     Time
	UplinkBytes int64
}

// SendProbe observes delivered sends. It must be passive: probes run inside
// the send path and must not schedule events, send messages, or otherwise
// perturb the simulation, or determinism against an unprobed run is lost.
type SendProbe func(ProbeSample)

// Network is the emulator.
type Network struct {
	cfg Config
	now Time
	seq uint64
	// sched is the (at, seq)-ordered event queue: a hierarchical timer
	// wheel (tests swap in heapSched, the reference order, right after New).
	sched scheduler
	// groups is the dense node table, indexed [group][index]. Slices, not a
	// map: O(1) lookup without hashing, and — load-bearing for determinism —
	// every whole-network sweep (crash a group, account traffic) iterates in
	// a fixed order.
	groups [][]*Node
	faults *faultState
	probe  SendProbe

	freeEvents *event

	crashDropped int64
}

// SetSendProbe installs a passive observer of message sends (tracing).
// Probes fire only for copies that will actually be delivered — after drop,
// duplication, and partition decisions — and only read, so the event
// schedule is identical with and without a probe.
func (nw *Network) SetSendProbe(p SendProbe) { nw.probe = p }

// New creates an emulated network per cfg and instantiates all nodes with a
// nil handler; call SetHandler before Run.
func New(cfg Config) *Network {
	if cfg.Topology == nil {
		cfg.Topology = NewTopology(len(cfg.GroupSizes))
	}
	if r := cfg.Topology.Regions(); r < len(cfg.GroupSizes) {
		panic(fmt.Sprintf("simnet: a topology of %d regions for %d groups", r, len(cfg.GroupSizes)))
	}
	nw := &Network{
		cfg:   cfg,
		sched: &timerWheel{},
		faults: &faultState{seed: mix64(uint64(cfg.Seed)), partitions: map[[2]int]bool{},
			byz: map[keys.NodeID]*byzSender{}},
	}
	nw.groups = make([][]*Node, len(cfg.GroupSizes))
	for g, n := range cfg.GroupSizes {
		wanBW := cfg.Topology.GroupBandwidth(g)
		nw.groups[g] = make([]*Node, n)
		for j := 0; j < n; j++ {
			id := keys.NodeID{Group: g, Index: j}
			nw.groups[g][j] = &Node{
				ID:      id,
				nw:      nw,
				wanUp:   iface{bandwidth: wanBW},
				wanDown: iface{bandwidth: wanBW},
				lanUp:   iface{bandwidth: LANBandwidth},
				lanDown: iface{bandwidth: LANBandwidth},
			}
		}
	}
	return nw
}

// Node returns the node with the given ID, or nil.
func (nw *Network) Node(id keys.NodeID) *Node {
	if id.Group < 0 || id.Group >= len(nw.groups) {
		return nil
	}
	row := nw.groups[id.Group]
	if id.Index < 0 || id.Index >= len(row) {
		return nil
	}
	return row[id.Index]
}

// NumGroups returns the number of groups.
func (nw *Network) NumGroups() int { return len(nw.groups) }

// GroupSize returns the number of nodes in group g (0 if out of range).
func (nw *Network) GroupSize(g int) int {
	if g < 0 || g >= len(nw.groups) {
		return 0
	}
	return len(nw.groups[g])
}

// SetHandler installs the protocol handler for a node.
func (nw *Network) SetHandler(id keys.NodeID, h transport.Handler) {
	n := nw.Node(id)
	if n == nil {
		panic(fmt.Sprintf("simnet: unknown node %v", id))
	}
	n.handler = h
}

// SetNodeBandwidth overrides the WAN bandwidth (both directions, bytes/s) of
// one node; used by the Fig 14 heterogeneous-bandwidth experiment.
func (nw *Network) SetNodeBandwidth(id keys.NodeID, bytesPerSec float64) {
	n := nw.Node(id)
	if n == nil {
		panic(fmt.Sprintf("simnet: unknown node %v", id))
	}
	n.wanUp.bandwidth = bytesPerSec
	n.wanDown.bandwidth = bytesPerSec
}

// SetOutboundFilter installs a Byzantine sender filter on a node. The filter
// may mutate the message (tampering) or return false to drop it.
func (nw *Network) SetOutboundFilter(id keys.NodeID, f func(*transport.Message) bool) {
	nw.Node(id).outbound = f
}

// Crash marks a node as crashed: it stops sending, messages and timers
// addressed to it are discarded, and — because a rebooted machine's NIC
// queues and CPU run queue do not survive the reboot — its interface lane
// bookings and CPU debt are reset. Without the reset, a recovered node
// would resume pre-crash serialization debt, and traffic sent at it while
// it was down would congest its downlink far past the recovery.
func (nw *Network) Crash(id keys.NodeID) { nw.Node(id).crash() }

func (n *Node) crash() {
	n.crashed = true
	n.busyUntil = 0
	n.wanUp.reset()
	n.wanDown.reset()
	n.lanUp.reset()
	n.lanDown.reset()
}

// Recover clears a node's crashed flag.
func (nw *Network) Recover(id keys.NodeID) { nw.Node(id).crashed = false }

// CrashGroup crashes every node in group g (data center outage, §VI-E).
// Iterates the dense node table in index order (deterministic).
func (nw *Network) CrashGroup(g int) {
	if g < 0 || g >= len(nw.groups) {
		return
	}
	for _, n := range nw.groups[g] {
		n.crash()
	}
}

// RecoverGroup recovers every node in group g in index order.
func (nw *Network) RecoverGroup(g int) {
	if g < 0 || g >= len(nw.groups) {
		return
	}
	for _, n := range nw.groups[g] {
		n.crashed = false
	}
}

// Now returns the current virtual time.
func (nw *Network) Now() Time { return nw.now }

// Schedule runs fn at the given absolute virtual time (network-level event,
// not bound to a node; used by the harness for fault injection).
func (nw *Network) Schedule(at Time, fn func()) {
	if at < nw.now {
		at = nw.now
	}
	e := nw.allocEvent()
	e.at, e.kind, e.fn = at, evFunc, fn
	nw.push(e)
}

func (nw *Network) push(e *event) {
	e.seq = nw.seq
	nw.seq++
	nw.sched.push(e)
}

// Run processes events until virtual time `until` (inclusive). It returns
// the number of events processed.
func (nw *Network) Run(until Time) int {
	processed := 0
	for {
		e, ok := nw.sched.peek()
		if !ok || e.at > until {
			break
		}
		nw.sched.pop()
		if e.at > nw.now {
			nw.now = e.at
		}
		if e.node != nil {
			if e.node.crashed {
				nw.freeEvent(e)
				continue
			}
			// CPU model: a busy node defers the event.
			if e.node.busyUntil > nw.now {
				e.at = e.node.busyUntil
				nw.push(e)
				continue
			}
		}
		if e.kind == evDeliver {
			e.node.deliver(e.msg)
		} else {
			e.fn()
		}
		nw.freeEvent(e)
		processed++
	}
	if until > nw.now {
		nw.now = until
	}
	return processed
}

// RunAll processes events until the queue is empty. Protocols with periodic
// timers never drain, so RunAll is only useful in unit tests.
func (nw *Network) RunAll() int {
	processed := 0
	for {
		e, ok := nw.sched.peek()
		if !ok {
			break
		}
		processed += nw.Run(e.at)
	}
	return processed
}

// Pending returns the number of scheduled events not yet processed.
func (nw *Network) Pending() int { return nw.sched.len() }

func (nw *Network) latency(from, to keys.NodeID) Time {
	t := nw.cfg.Topology
	return t.lat[from.Group*t.regions+to.Group]
}

// WANBytes returns the total bytes sent over WAN uplinks by nodes of group g
// (or all groups when g < 0); used for Fig 10 traffic accounting. Iterates
// the dense node table in (group, index) order.
func (nw *Network) WANBytes(g int) int64 {
	var total int64
	for gi, row := range nw.groups {
		if g >= 0 && gi != g {
			continue
		}
		for _, n := range row {
			total += n.wanUp.bytes
		}
	}
	return total
}

// NodeWANBytes returns bytes sent over one node's WAN uplink.
func (nw *Network) NodeWANBytes(id keys.NodeID) int64 { return nw.Node(id).wanUp.bytes }

// CrashDropped returns how many messages were lost because their
// destination was crashed at send time (the connection to a down machine is
// torn; nothing is charged to either NIC).
func (nw *Network) CrashDropped() int64 { return nw.crashDropped }

// --- Node API (valid only from inside event handlers) ---

// Now returns the node's current virtual time.
func (n *Node) Now() Time { return n.nw.now }

// Send transmits payload of the given wire size to another node, modeling
// serialization and propagation delay. Sends to crashed destinations are
// lost at the sender (the connection is down), charging no bandwidth.
func (n *Node) Send(to keys.NodeID, payload any, size int) {
	n.send(to, payload, size, false)
}

// SendPriority transmits a small control message on the priority lane: it
// still pays its own serialization time but does not queue behind bulk
// transfers. Real deployments multiplex control traffic over separate
// connections (the paper's implementation runs consensus metadata and chunk
// transfer on distinct streams), so commit/timestamp records must not sit
// behind hundreds of milliseconds of queued chunks.
func (n *Node) SendPriority(to keys.NodeID, payload any, size int) {
	n.send(to, payload, size, true)
}

// pushDeliver schedules an inline delivery event (no closure allocation).
func (nw *Network) pushDeliver(at Time, dst *Node, msg transport.Message) {
	e := nw.allocEvent()
	e.at, e.node, e.kind, e.msg = at, dst, evDeliver, msg
	nw.push(e)
}

func (n *Node) send(to keys.NodeID, payload any, size int, priority bool) {
	if n.crashed {
		return
	}
	msg := transport.Message{From: n.ID, To: to, Payload: payload, Size: size}
	if n.outbound != nil && !n.outbound(&msg) {
		return
	}
	dst := n.nw.Node(to)
	if dst == nil {
		return
	}
	nw := n.nw
	if to == n.ID {
		// Loopback: deliver after a minimal delay without touching NICs.
		nw.pushDeliver(nw.now+time.Microsecond, n, msg)
		if nw.probe != nil {
			nw.probe(ProbeSample{
				Message: msg, Loopback: true, Priority: priority,
				Enqueue: nw.now, Depart: nw.now, Arrive: nw.now + time.Microsecond,
			})
		}
		return
	}
	if dst.crashed {
		// The destination machine is down, so the connection is torn: the
		// message is lost before it leaves the sender's NIC (like a severed
		// partition) and — critically — nothing is booked on the crashed
		// node's downlink, so its post-recovery delivery latency does not
		// depend on how much traffic was thrown at it while it was dark.
		nw.crashDropped++
		return
	}
	f := nw.faults
	wan := to.Group != n.ID.Group
	l := f.next(&msg)
	f.corruptOutbound(l, &msg)
	if wan && f.partitions[pairKey(n.ID.Group, to.Group)] {
		// A severed WAN link loses the message before it leaves the sender's
		// NIC (the TCP connection is gone), so no bandwidth is charged.
		f.partitionDropped++
		return
	}
	drop, dup := f.sample(l, wan)
	uplink, downlink := &n.lanUp, &dst.lanDown
	if wan {
		uplink, downlink = &n.wanUp, &dst.wanDown
	}
	// Queue-wait / backlog samples must be read before transmitLane books the
	// message into the lane. Pure reads: a probed run stays bit-identical.
	var queueWait, backlog Time
	if nw.probe != nil {
		if uplink.free > nw.now {
			backlog = uplink.free - nw.now
		}
		queueWait = backlog
		if priority {
			queueWait = 0
			if uplink.prioFree > nw.now {
				queueWait = uplink.prioFree - nw.now
			}
		}
	}
	departEnd := uplink.transmitLane(nw.now, msg.Size, priority)
	if drop {
		// Lost in transit: the sender paid serialization, nothing arrives.
		f.dropped++
		return
	}
	lat := nw.latency(n.ID, to)
	lat += f.extraJitter(l, lat)
	arrEnd := downlink.transmitLane(departEnd+lat, msg.Size, priority)
	nw.pushDeliver(arrEnd, dst, msg)
	var dupArrEnd Time
	if dup {
		f.duplicated++
		dupArrEnd = downlink.transmitLane(departEnd+lat+f.dupDelay(lat), msg.Size, priority)
		nw.pushDeliver(dupArrEnd, dst, msg)
	}
	if nw.probe != nil {
		sample := ProbeSample{
			Message: msg, WAN: wan, Priority: priority,
			Enqueue: nw.now, Depart: departEnd, Arrive: arrEnd,
			QueueWait: queueWait, Backlog: backlog, UplinkBytes: uplink.bytes,
		}
		nw.probe(sample)
		if dup {
			// The duplicate copy is a delivery of its own: report it with its
			// own arrival so the trace layer sees every copy that lands.
			sample.Duplicate = true
			sample.Arrive = dupArrEnd
			nw.probe(sample)
		}
	}
}

func (n *Node) deliver(msg transport.Message) {
	if n.crashed || n.handler == nil {
		return
	}
	n.handler.HandleMessage(msg)
}

// After schedules fn on this node after delay d of virtual time. The timer is
// discarded if the node is crashed when it fires.
func (n *Node) After(d Time, fn func()) {
	e := n.nw.allocEvent()
	e.at, e.node, e.kind, e.fn = n.nw.now+d, n, evFunc, fn
	n.nw.push(e)
}

// Charge models CPU cost: the node is busy for d, deferring subsequent
// events. Use it for expensive operations the real hardware would serialize
// (transaction signature verification, erasure encoding, execution).
func (n *Node) Charge(d Time) {
	start := n.nw.now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	n.busyUntil = start + d
}

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool { return n.crashed }

// Backlogs returns how far in the future each interface's bulk lane is
// booked (uplink, downlink, LAN up, LAN down) — queue-depth diagnostics.
func (n *Node) Backlogs() (wanUp, wanDown, lanUp, lanDown Time) {
	now := n.nw.now
	sub := func(free Time) Time {
		if free > now {
			return free - now
		}
		return 0
	}
	return sub(n.wanUp.free), sub(n.wanDown.free), sub(n.lanUp.free), sub(n.lanDown.free)
}
