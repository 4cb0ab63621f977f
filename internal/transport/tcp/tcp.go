// Package tcp is the real-network transport backend: it carries the
// transport seam (Endpoint, Handler, Message) over TCP with per-peer
// supervised connections, so a MassBFT cluster can run as N OS processes on
// loopback or a real WAN.
//
// Each process hosts exactly one protocol node. The design preserves the
// discrete-event programming model the protocol was written against:
//
//   - one event-loop goroutine per node serializes every HandleMessage call
//     and After timer callback (protocol code stays single-threaded);
//   - Send/SendPriority never block: payloads are encoded on the caller and
//     pushed onto one of a peer's two bounded lanes. A full lane drops the
//     envelope and counts it — the protocol's repair paths (chunk NACK
//     repair, stream fetch, catch-up) recover lost traffic, and dropping
//     beats stalling consensus behind a slow peer;
//   - a connection supervisor per peer owns the dialed connection: dial with
//     deadline, identify via a hello control frame, write with send
//     deadlines, reconnect on any failure with exponential backoff plus
//     seeded jitter, and probe liveness with ping/pong heartbeats. Outbound
//     traffic uses the dialed connection only; inbound arrives on
//     connections the listener accepts, so each direction heals
//     independently;
//   - the priority lane is strict: the writer takes both lanes at once and
//     frames the priority envelopes before the bulk ones, mirroring the
//     simnet interface's two token buckets. What it took goes out framed
//     into one reused buffer, one write per transport.WriteChunk bytes;
//   - every accepted connection reads through one bufio.Reader, hello
//     included, so a burst of small frames costs one read call, and each
//     frame's payload is the one buffer its decoded message aliases.
//
// The codec is injected (cluster.EncodeEnvelope/DecodeEnvelope) to keep this
// package free of protocol imports.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"massbft/internal/keys"
	"massbft/internal/transport"
)

// Control frame payloads (transport.FlagControl).
const (
	ctlHello = 1 // + group u32 + index u32: identifies the dialing node
	ctlPing  = 2
	ctlPong  = 3
)

// Config wires up one process-hosted node.
type Config struct {
	// Self is the node this process hosts; Listen its accept address.
	Self   keys.NodeID
	Listen string
	// Peers maps every other node to its dialable address.
	Peers map[keys.NodeID]string

	// Encode/Decode translate protocol payloads to wire bytes (injected,
	// typically cluster.EncodeEnvelope / cluster.DecodeEnvelope).
	Encode func(payload any) ([]byte, error)
	Decode func(buf []byte) (any, error)

	// Seed drives backoff jitter. Zero is a valid seed.
	Seed int64

	DialTimeout time.Duration // per dial attempt
	SendTimeout time.Duration // write deadline per frame

	BackoffMin time.Duration // first reconnect delay
	BackoffMax time.Duration // backoff cap

	HeartbeatInterval time.Duration // ping cadence on idle connections
	HeartbeatTimeout  time.Duration // silence after which the conn is declared dead

	QueueBulk int // per-peer bulk lane capacity (messages)
	QueuePrio int // per-peer priority lane capacity (messages)

	DrainTimeout time.Duration // flush budget for queued messages on Close

	// Logf, if set, receives connection lifecycle events.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.DialTimeout, 2*time.Second)
	def(&c.SendTimeout, 2*time.Second)
	def(&c.BackoffMin, 50*time.Millisecond)
	def(&c.BackoffMax, 2*time.Second)
	def(&c.HeartbeatInterval, 500*time.Millisecond)
	def(&c.HeartbeatTimeout, 3*time.Second)
	def(&c.DrainTimeout, 2*time.Second)
	if c.QueueBulk <= 0 {
		c.QueueBulk = 4096
	}
	if c.QueuePrio <= 0 {
		c.QueuePrio = 4096
	}
	return c
}

// Stats is a snapshot of transport health counters.
type Stats struct {
	Connects        uint64 // successful dials (first connection per peer included)
	Reconnects      uint64 // successful dials after a previous connection existed
	DialFailures    uint64
	SendTimeouts    uint64
	QueueDropBulk   uint64
	QueueDropPrio   uint64
	HeartbeatMisses uint64
	BytesOut        uint64
	BytesIn         uint64
	EncodeErrors    uint64
	DecodeErrors    uint64
	RecvErrors      uint64 // inbound framing/handshake failures

	// DropsByKind breaks queue drops down by envelope kind (the first byte
	// of the encoded payload), so "the bulk lane sheds chunk batches under
	// load" and "client replies are being lost" are distinguishable — the
	// former is the designed backpressure policy, the latter a
	// misconfiguration (replies belong on the priority lane). Only kinds
	// with at least one drop appear.
	DropsByKind map[byte]uint64 `json:"drops_by_kind,omitempty"`
}

type stats struct {
	connects, reconnects, dialFailures, sendTimeouts atomic.Uint64
	queueDropBulk, queueDropPrio                     atomic.Uint64
	heartbeatMisses, bytesOut, bytesIn               atomic.Uint64
	encodeErrors, decodeErrors, recvErrors           atomic.Uint64
	dropsByKind                                      [256]atomic.Uint64
}

// Network is the TCP fabric of one process-hosted node: its Endpoint sends,
// and its event loop hands each received Message to the installed Handler.
type Network struct {
	cfg   Config
	ls    net.Listener
	start time.Time
	st    stats

	mu      sync.Mutex
	handler transport.Handler
	sups    map[keys.NodeID]*supervisor
	// timers holds the After timers not yet fired, so that Close can stop
	// them: a pending timer keeps its callback — and through it the whole
	// hosted node — reachable until it would have fired.
	timers map[*time.Timer]struct{}
	closed bool

	box  *mailbox
	done chan struct{}
	wg   sync.WaitGroup
}

// New starts the listener and the node event loop. Traffic is accepted
// immediately, but deliveries wait until SetHandler installs the node.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Encode == nil || cfg.Decode == nil {
		return nil, errors.New("tcp: Config.Encode and Config.Decode are required")
	}
	ls, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
	}
	n := &Network{
		cfg:    cfg,
		ls:     ls,
		start:  time.Now(),
		sups:   make(map[keys.NodeID]*supervisor),
		timers: make(map[*time.Timer]struct{}),
		box:    newMailbox(),
		done:   make(chan struct{}),
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.eventLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *Network) Addr() string { return n.ls.Addr().String() }

// Stats snapshots the health counters.
func (n *Network) Stats() Stats {
	var byKind map[byte]uint64
	for k := range n.st.dropsByKind {
		if v := n.st.dropsByKind[k].Load(); v > 0 {
			if byKind == nil {
				byKind = make(map[byte]uint64)
			}
			byKind[byte(k)] = v
		}
	}
	return Stats{
		DropsByKind:     byKind,
		Connects:        n.st.connects.Load(),
		Reconnects:      n.st.reconnects.Load(),
		DialFailures:    n.st.dialFailures.Load(),
		SendTimeouts:    n.st.sendTimeouts.Load(),
		QueueDropBulk:   n.st.queueDropBulk.Load(),
		QueueDropPrio:   n.st.queueDropPrio.Load(),
		HeartbeatMisses: n.st.heartbeatMisses.Load(),
		BytesOut:        n.st.bytesOut.Load(),
		BytesIn:         n.st.bytesIn.Load(),
		EncodeErrors:    n.st.encodeErrors.Load(),
		DecodeErrors:    n.st.decodeErrors.Load(),
		RecvErrors:      n.st.recvErrors.Load(),
	}
}

// Endpoint returns the hosted node's handle on the fabric; any other ID has
// none (nil).
func (n *Network) Endpoint(id keys.NodeID) transport.Endpoint {
	if id != n.cfg.Self {
		return nil
	}
	return (*endpoint)(n)
}

// SetHandler installs the hosted node's message handler (other IDs are
// ignored). Call it before traffic flows.
func (n *Network) SetHandler(id keys.NodeID, h transport.Handler) {
	if id != n.cfg.Self {
		return
	}
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

// Close drains and shuts the fabric down: stop accepting, give each supervisor
// its drain budget to flush queued messages, then tear everything down.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	sups := make([]*supervisor, 0, len(n.sups))
	for _, s := range n.sups {
		sups = append(sups, s)
	}
	for t := range n.timers {
		t.Stop()
	}
	n.timers = nil
	n.mu.Unlock()

	for _, s := range sups {
		close(s.stop)
	}
	close(n.done)
	n.ls.Close()
	n.box.close()
	n.wg.Wait()
	return nil
}

func (n *Network) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// post schedules fn on the node event loop. Safe from any goroutine,
// including the loop itself (the mailbox is unbounded, so a handler that
// self-sends cannot deadlock).
func (n *Network) post(fn func()) { n.box.put(fn) }

func (n *Network) eventLoop() {
	defer n.wg.Done()
	for {
		fns, ok := n.box.take()
		for _, fn := range fns {
			fn()
		}
		if !ok {
			return
		}
	}
}

func (n *Network) deliver(from keys.NodeID, payload any, size int) {
	n.post(func() {
		n.mu.Lock()
		h := n.handler
		n.mu.Unlock()
		if h == nil {
			return
		}
		h.HandleMessage(transport.Message{From: from, To: n.cfg.Self, Payload: payload, Size: size})
	})
}

// --- endpoint (the hosted node's view of the fabric) ---

type endpoint Network

func (e *endpoint) nw() *Network { return (*Network)(e) }

func (e *endpoint) Send(to keys.NodeID, payload any, size int) {
	e.nw().send(to, payload, false)
}

func (e *endpoint) SendPriority(to keys.NodeID, payload any, size int) {
	e.nw().send(to, payload, true)
}

// After runs fn on the node event loop once d of wall time has elapsed.
func (e *endpoint) After(d time.Duration, fn func()) {
	nw := e.nw()
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.closed {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		nw.mu.Lock() // also orders this read of t after its assignment below
		delete(nw.timers, t)
		nw.mu.Unlock()
		select {
		case <-nw.done:
		default:
			nw.post(fn)
		}
	})
	nw.timers[t] = struct{}{}
}

// Now is wall time elapsed since the fabric started.
func (e *endpoint) Now() time.Duration { return time.Since(e.nw().start) }

// Charge models simulated CPU cost; real CPU burns itself.
func (e *endpoint) Charge(time.Duration) {}

func (n *Network) send(to keys.NodeID, payload any, prio bool) {
	if to == n.cfg.Self {
		// Loopback: deliver on the event loop without touching a socket.
		n.deliver(to, payload, 0)
		return
	}
	enc, err := n.cfg.Encode(payload)
	if err == nil && len(enc) > transport.MaxFrameSize {
		// The receiver would refuse the frame and drop the connection,
		// and with it every frame written in the same burst.
		err = fmt.Errorf("%w: %d bytes", transport.ErrFrameTooLarge, len(enc))
	}
	if err != nil {
		n.st.encodeErrors.Add(1)
		n.logf("tcp: encode for %v: %v", to, err)
		return
	}
	s := n.supervisor(to)
	if s == nil {
		return
	}
	if !s.enqueue(enc, prio) {
		// Bounded-queue backpressure policy: drop, count, let the
		// protocol's loss-recovery paths repair. Never block the node.
		if prio {
			n.st.queueDropPrio.Add(1)
		} else {
			n.st.queueDropBulk.Add(1)
		}
		n.st.dropsByKind[enc[0]].Add(1)
	}
}

// supervisor returns (lazily starting) the connection supervisor for a peer.
func (n *Network) supervisor(to keys.NodeID) *supervisor {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if s, ok := n.sups[to]; ok {
		return s
	}
	addr, ok := n.cfg.Peers[to]
	if !ok {
		n.logf("tcp: no address for peer %v", to)
		return nil
	}
	s := &supervisor{
		nw:   n,
		peer: to,
		addr: addr,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		rng: rand.New(rand.NewSource(n.cfg.Seed ^
			int64(to.Group)<<32 ^ int64(to.Index)<<16 ^
			int64(n.cfg.Self.Group)<<8 ^ int64(n.cfg.Self.Index))),
	}
	n.sups[to] = s
	n.wg.Add(1)
	go s.run()
	return s
}

// --- outbound: per-peer connection supervisor ---

type supervisor struct {
	nw   *Network
	peer keys.NodeID
	addr string
	stop chan struct{}
	rng  *rand.Rand

	// The two lanes: encoded envelopes waiting for the writer, at most
	// QueuePrio and QueueBulk of them. wake holds a token whenever an
	// envelope was queued since the writer last took the lanes.
	mu         sync.Mutex
	prio, bulk [][]byte
	wake       chan struct{}

	// The writer's own state: the lanes' slices it emptied last, swapped
	// back in on its next take, its frame buffer, and the drain deadline
	// (zero until Close).
	sparePrio, spareBulk [][]byte
	out                  transport.FrameBuf
	drainBy              time.Time

	everConnected bool
	lastAlive     atomic.Int64 // monotonic nanos of last pong/connect
}

// enqueue puts an encoded envelope on its lane, or reports false when the
// lane is full.
func (s *supervisor) enqueue(enc []byte, prio bool) bool {
	s.mu.Lock()
	lane, limit := &s.bulk, s.nw.cfg.QueueBulk
	if prio {
		lane, limit = &s.prio, s.nw.cfg.QueuePrio
	}
	ok := len(*lane) < limit
	if ok {
		*lane = append(*lane, enc)
	}
	s.mu.Unlock()
	if ok {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return ok
}

// run is the reconnect state machine: Dial -> (fail: Backoff -> Dial) ->
// Connected -> (write error, timeout, or heartbeat loss: Backoff -> Dial),
// with backoff doubling from BackoffMin to BackoffMax, jittered to half its
// nominal value, and reset to zero after every successful dial.
func (s *supervisor) run() {
	defer s.nw.wg.Done()
	cfg := s.nw.cfg
	attempt := 0
	for {
		select {
		case <-s.stop:
			s.drain(nil)
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", s.addr, cfg.DialTimeout)
		if err != nil {
			s.nw.st.dialFailures.Add(1)
			attempt++
			if !s.sleep(s.backoff(attempt)) {
				s.drain(nil)
				return
			}
			continue
		}
		if s.everConnected {
			s.nw.st.reconnects.Add(1)
		} else {
			s.nw.st.connects.Add(1)
		}
		s.everConnected = true
		attempt = 0
		s.nw.logf("tcp: %v connected to %v (%s)", cfg.Self, s.peer, s.addr)
		if s.serve(conn) {
			return // stopped: drained inside serve
		}
		attempt++
		if !s.sleep(s.backoff(attempt)) {
			s.drain(nil)
			return
		}
	}
}

// backoff returns the jittered delay before dial attempt n (1-based).
func (s *supervisor) backoff(attempt int) time.Duration {
	cfg := s.nw.cfg
	d := cfg.BackoffMin << uint(attempt-1)
	if d > cfg.BackoffMax || d <= 0 {
		d = cfg.BackoffMax
	}
	// Jitter in [d/2, d): desynchronizes peers reconnecting to the same
	// restarted node.
	half := d / 2
	if half > 0 {
		d = half + time.Duration(s.rng.Int63n(int64(half)))
	}
	return d
}

func (s *supervisor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// serve owns one live connection: hello handshake, strict-priority frame
// writing, heartbeat pings, and a pong reader. Returns true if the
// supervisor should exit (shutdown), false to reconnect.
func (s *supervisor) serve(conn net.Conn) (stopped bool) {
	cfg := s.nw.cfg
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hello := make([]byte, 0, 9)
	hello = append(hello, ctlHello)
	hello = binary.BigEndian.AppendUint32(hello, uint32(cfg.Self.Group))
	hello = binary.BigEndian.AppendUint32(hello, uint32(cfg.Self.Index))
	s.out.Add(transport.FlagControl, hello)
	if !s.write(conn) {
		conn.Close()
		return false
	}
	s.lastAlive.Store(time.Now().UnixNano())

	// Pong reader: the dialed connection is written by this goroutine and
	// read only for heartbeat replies.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			flags, payload, err := transport.ReadFrame(conn)
			if err != nil {
				return
			}
			if flags&transport.FlagControl != 0 && len(payload) >= 1 && payload[0] == ctlPong {
				s.lastAlive.Store(time.Now().UnixNano())
			}
		}
	}()
	defer func() {
		conn.Close()
		<-readerDone
	}()

	hb := time.NewTicker(cfg.HeartbeatInterval)
	defer hb.Stop()

	for {
		select {
		case <-s.wake:
			if !s.flush(conn) {
				return false
			}
		case <-hb.C:
			alive := time.Unix(0, s.lastAlive.Load())
			if time.Since(alive) > cfg.HeartbeatTimeout {
				s.nw.st.heartbeatMisses.Add(1)
				s.nw.logf("tcp: %v heartbeat lost to %v", cfg.Self, s.peer)
				return false
			}
			s.out.Add(transport.FlagControl, []byte{ctlPing})
			if !s.write(conn) {
				return false
			}
		case <-s.stop:
			s.drain(conn)
			return true
		}
	}
}

// flush takes both lanes and writes what they held: the priority envelopes
// first, then the bulk ones, framed into the writer's buffer and written
// whenever it fills. The lanes get back the slices the previous flush
// emptied, so a steady flow allocates nothing here. False means the
// connection is dead; what the flush had not written yet is lost with it,
// as a partly written burst would be.
func (s *supervisor) flush(conn net.Conn) bool {
	s.mu.Lock()
	prio, bulk := s.prio, s.bulk
	s.prio, s.bulk = s.sparePrio, s.spareBulk
	s.mu.Unlock()
	ok := s.frame(conn, transport.FlagPriority, prio) && s.frame(conn, 0, bulk)
	if ok && s.out.Len() > 0 {
		ok = s.write(conn)
	}
	clear(prio) // the envelopes are garbage once written
	clear(bulk)
	s.sparePrio, s.spareBulk = prio[:0], bulk[:0]
	return ok
}

// frame adds one lane's envelopes to the writer's buffer, writing it
// whenever it fills.
func (s *supervisor) frame(conn net.Conn, flags byte, lane [][]byte) bool {
	for _, enc := range lane {
		if s.out.Add(flags, enc) && !s.write(conn) {
			return false
		}
	}
	return true
}

// write sends the writer's buffer with the configured deadline, or the drain
// deadline if that comes first, and empties it. False means the connection
// is dead.
func (s *supervisor) write(conn net.Conn) bool {
	deadline := time.Now().Add(s.nw.cfg.SendTimeout)
	if !s.drainBy.IsZero() && s.drainBy.Before(deadline) {
		deadline = s.drainBy
	}
	conn.SetWriteDeadline(deadline)
	m, err := s.out.Flush(conn)
	s.nw.st.bytesOut.Add(uint64(m))
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			s.nw.st.sendTimeouts.Add(1)
		}
		return false
	}
	return true
}

// drain flushes whatever the lanes still hold within the drain budget.
// conn may be nil (never connected — queued envelopes are simply
// discarded). Nothing is queued after Close, so one flush takes it all.
func (s *supervisor) drain(conn net.Conn) {
	if conn == nil {
		return
	}
	s.drainBy = time.Now().Add(s.nw.cfg.DrainTimeout)
	s.flush(conn)
}

// --- inbound: listener and per-connection readers ---

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ls.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			n.logf("tcp: accept: %v", err)
			continue
		}
		n.wg.Add(1)
		go n.serveInbound(conn)
	}
}

// serveInbound reads frames from one accepted connection. The first frame
// must be a hello identifying a known peer; afterwards data frames are
// decoded and delivered, pings answered with pongs. Any framing error
// (including checksum and version mismatches) kills the connection — the
// remote supervisor will reconnect.
func (n *Network) serveInbound(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	go func() { // tear down mid-read on shutdown
		<-n.done
		conn.Close()
	}()

	br := bufio.NewReaderSize(conn, transport.ReadBuffer)
	from, ok := n.handshake(conn, br)
	if !ok {
		return
	}
	pong := transport.AppendFrame(nil, transport.FlagControl, []byte{ctlPong})
	for {
		flags, payload, err := transport.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				n.st.recvErrors.Add(1)
				n.logf("tcp: read from %v: %v", from, err)
			}
			return
		}
		n.st.bytesIn.Add(uint64(12 + len(payload)))
		if flags&transport.FlagControl != 0 {
			if len(payload) >= 1 && payload[0] == ctlPing {
				conn.SetWriteDeadline(time.Now().Add(n.cfg.SendTimeout))
				if _, err := conn.Write(pong); err != nil {
					return
				}
			}
			continue
		}
		payloadAny, err := n.cfg.Decode(payload)
		if err != nil {
			n.st.decodeErrors.Add(1)
			n.logf("tcp: decode from %v: %v", from, err)
			continue // envelope-level garbage from an identified peer: skip it
		}
		n.deliver(from, payloadAny, len(payload))
	}
}

// handshake reads the hello through br, the reader every later frame on the
// connection comes through: frames buffered behind the hello stay in it.
func (n *Network) handshake(conn net.Conn, br *bufio.Reader) (keys.NodeID, bool) {
	conn.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	flags, payload, err := transport.ReadFrame(br)
	conn.SetReadDeadline(time.Time{})
	if err != nil || flags&transport.FlagControl == 0 || len(payload) != 9 || payload[0] != ctlHello {
		n.st.recvErrors.Add(1)
		return keys.NodeID{}, false
	}
	from := keys.NodeID{
		Group: int(binary.BigEndian.Uint32(payload[1:5])),
		Index: int(binary.BigEndian.Uint32(payload[5:9])),
	}
	if _, known := n.cfg.Peers[from]; !known && from != n.cfg.Self {
		n.st.recvErrors.Add(1)
		n.logf("tcp: hello from unknown peer %v", from)
		return keys.NodeID{}, false
	}
	n.st.bytesIn.Add(uint64(12 + len(payload)))
	return from, true
}

// --- unbounded mailbox (the node event queue) ---

// mailbox is an unbounded MPSC queue: posts never block (a handler running
// on the loop can self-send without deadlock), and the consumer takes
// batches.
type mailbox struct {
	mu     sync.Mutex
	q      []func()
	wake   chan struct{}
	closed bool
}

func newMailbox() *mailbox {
	return &mailbox{wake: make(chan struct{}, 1)}
}

func (m *mailbox) put(fn func()) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.q = append(m.q, fn)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// take blocks for the next batch. ok=false means the mailbox is closed and
// the returned batch is the final one.
func (m *mailbox) take() ([]func(), bool) {
	for {
		m.mu.Lock()
		q, closed := m.q, m.closed
		m.q = nil
		m.mu.Unlock()
		if len(q) > 0 || closed {
			return q, !closed
		}
		<-m.wake
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}
