// Package transport defines the message-fabric seam between protocol nodes
// and the network that carries their traffic: a node sends through an
// Endpoint and is handed each delivered Message by its Handler. Protocol
// code (internal/core) speaks only to these types, and both fabrics speak
// them natively:
//
//   - the deterministic in-process emulator (internal/simnet), whose
//     *simnet.Node is an Endpoint and whose events carry a Message to the
//     node's Handler — every simulated test and benchmark runs on it;
//   - the real TCP backend (internal/transport/tcp) — per-peer supervised
//     connections with reconnect/backoff, bounded queues, heartbeats, and a
//     length-framed, checksummed wire format — used by cmd/massbft-node to
//     run a cluster as N OS processes.
//
// The seam deliberately mirrors the discrete-event programming model the
// protocol was built on: each node is single-threaded, all of its message
// handling and timer callbacks run serialized on one logical event loop, and
// Send never blocks (backpressure is a bounded-queue drop, which the
// protocol's repair paths recover from, not a stall of consensus).
package transport

import (
	"time"

	"massbft/internal/keys"
)

// Message is a payload in flight between two nodes. Size is the number of
// bytes the message occupies on the wire; the simulated fabric uses it to
// model serialization delay, the real fabric for accounting only (the codec
// determines actual bytes).
type Message struct {
	From, To keys.NodeID
	Payload  any
	Size     int
}

// Handler processes messages delivered to a node. Implementations are not
// required to be safe for concurrent use: every fabric guarantees that one
// node's HandleMessage and timer callbacks never run concurrently.
type Handler interface {
	HandleMessage(msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(msg Message) { f(msg) }

// Endpoint is one node's handle on the fabric — the exact surface protocol
// nodes were written against (the simnet node API):
//
//   - Send / SendPriority enqueue a message and return immediately. The
//     priority lane exists because consensus control records must not queue
//     behind bulk chunk transfers; real backends multiplex it over the same
//     connection but drain it first.
//   - After schedules fn on this node's event loop after d has elapsed on
//     the fabric's clock (virtual time in simnet, wall clock over TCP).
//   - Now returns time elapsed on that clock since the fabric started.
//   - Charge models CPU cost on fabrics with a cost model (simnet); real
//     backends burn real CPU and implement it as a no-op.
type Endpoint interface {
	Send(to keys.NodeID, payload any, size int)
	SendPriority(to keys.NodeID, payload any, size int)
	After(d time.Duration, fn func())
	Now() time.Duration
	Charge(d time.Duration)
}
