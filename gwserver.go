package massbft

// The client-facing side of a process-hosted node: a second listener,
// separate from the node-to-node TCP fabric, that speaks the same frame +
// envelope codec but to EXTERNAL clients (massbft.ClientPool,
// cmd/massbft-client). Separation matters: client traffic is unauthenticated
// until the gateway verifies request signatures, so it must never share the
// peer fabric's handshake trust, and a client flood must not contend with
// consensus frames for a supervisor queue.
//
// Protocol per connection (client dials):
//
//	client → server  control frame [gwHello, lo u64, hi u64): the client ID
//	                 range this connection serves (one connection multiplexes
//	                 many logical clients — a load generator does not pay one
//	                 socket per simulated client)
//	client → server  data frames: ClientRequest envelopes (kind 16)
//	server → client  data frames: ClientReply envelopes (kind 17)
//
// Replies are routed by client ID through the registered ranges. The hello
// range is an unauthenticated routing claim, so it is bounded (lo < hi,
// width ≤ gwMaxHelloRange — a connection cannot register [0, 2^64) and
// capture every client's reply routing here), and among covering
// connections the newest that has actually carried a request from that
// client wins, falling back to the newest registration (so a reconnecting
// client supersedes its dead connection). A squatter registering a foreign
// range it never uses therefore cannot shadow the real client's connection.
// A connection that sends a request does: readLoop marks the client as
// carried before any signature is checked (the leader checks at its cut; a
// follower forwards unchecked), so one request forged under X's ID captures
// X's receipts at this node. Replies only count in an f+1 certificate from
// distinct nodes, so that costs X one group member here — but a forger who
// connects to every member does the same at each, and capturing 2f+1 of a
// group's 3f+1 leaves X no certificate from it (a Byzantine-client target,
// ROADMAP item 4(c); not fixed). A reply to a client with no live connection
// here is dropped and counted — other group members hold connections too,
// and f+1 of them suffice for the client's certificate.

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/transport"
)

// gwHello is the control payload tag opening every gateway connection.
const gwHello = 1

// gwMaxHelloRange bounds the client-ID span one connection may register:
// generous for a load generator multiplexing tens of thousands of logical
// clients, far short of claiming the whole ID space.
const gwMaxHelloRange = 1 << 20

// gwConn is one accepted client connection: its registered ID range and a
// bounded outbound reply queue drained by a dedicated writer.
type gwConn struct {
	c      net.Conn
	lo, hi uint64
	out    chan []byte
	quit   chan struct{}
	once   sync.Once // guards quit: server close and read-loop exit can race

	mu   sync.Mutex
	seen map[uint64]struct{} // client IDs that have sent a request here
}

// noteClient records that the connection carried a request from client id;
// reply routing prefers connections with traffic over bare registrations.
// Bounded by the hello range: only in-range IDs are recorded.
func (gc *gwConn) noteClient(id uint64) {
	if id < gc.lo || id >= gc.hi {
		return
	}
	gc.mu.Lock()
	if gc.seen == nil {
		gc.seen = make(map[uint64]struct{})
	}
	gc.seen[id] = struct{}{}
	gc.mu.Unlock()
}

func (gc *gwConn) sawClient(id uint64) bool {
	gc.mu.Lock()
	_, ok := gc.seen[id]
	gc.mu.Unlock()
	return ok
}

func (gc *gwConn) shutdown() {
	gc.c.Close()
	gc.once.Do(func() { close(gc.quit) })
}

// gwServer owns the gateway listener of one process-hosted node.
type gwServer struct {
	n    *ProcNode
	ls   net.Listener
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  []*gwConn
	closed bool
}

// startGateway opens the client listener. Deliveries enter the node through
// its event loop, exactly like fabric traffic.
func startGateway(n *ProcNode, listen string) (*gwServer, error) {
	ls, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	s := &gwServer{n: n, ls: ls, done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *gwServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ls.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection: hello handshake, then a read loop
// feeding ClientRequests to the node and a writer draining replies.
func (s *gwServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	gc := &gwConn{
		c:    conn,
		out:  make(chan []byte, 1024),
		quit: make(chan struct{}),
	}
	defer gc.shutdown()
	// Tear down mid-read on server shutdown; exits with the connection too,
	// so past client connections do not each pin a watcher goroutine for the
	// server's lifetime.
	go func() {
		select {
		case <-s.done:
			conn.Close()
		case <-gc.quit:
		}
	}()

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	flags, payload, err := transport.ReadFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil || flags&transport.FlagControl == 0 || len(payload) != 17 || payload[0] != gwHello {
		return
	}
	gc.lo = binary.BigEndian.Uint64(payload[1:9])
	gc.hi = binary.BigEndian.Uint64(payload[9:17])
	if gc.lo >= gc.hi || gc.hi-gc.lo > gwMaxHelloRange {
		return // unauthenticated routing claim: refuse degenerate ranges
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns = append(s.conns, gc)
	s.mu.Unlock()

	s.wg.Add(1)
	go s.writeLoop(gc)
	s.readLoop(gc)
	s.drop(gc)
}

func (s *gwServer) readLoop(gc *gwConn) {
	for {
		flags, payload, err := transport.ReadFrame(gc.c)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.n.logfSafe("gateway: read: %v", err)
			}
			return
		}
		if flags&transport.FlagControl != 0 {
			continue // no control traffic after hello
		}
		msg, err := cluster.DecodeEnvelope(payload)
		if err != nil {
			s.n.logfSafe("gateway: decode: %v", err)
			continue
		}
		req, ok := msg.(*cluster.ClientRequest)
		if !ok {
			continue // clients send requests, nothing else
		}
		gc.noteClient(req.Txn.Client)
		size := len(payload)
		// Same single-threading contract as fabric traffic: the protocol
		// node runs only on its event loop. Clients are not cluster nodes;
		// group -1 marks their transport origin.
		s.n.ep.After(0, func() {
			s.n.node.HandleMessage(transport.Message{
				From:    keys.NodeID{Group: -1, Index: int(req.Txn.Client)},
				To:      s.n.id,
				Payload: req,
				Size:    size,
			})
		})
	}
}

func (s *gwServer) writeLoop(gc *gwConn) {
	defer s.wg.Done()
	for {
		select {
		case f := <-gc.out:
			gc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
			if _, err := gc.c.Write(f); err != nil {
				gc.c.Close() // unblocks the read loop, which unregisters
				return
			}
		case <-gc.quit:
			return
		}
	}
}

// reply routes one framed ClientReply to the client's live connection:
// newest connection that has carried a request from this client, else the
// newest whose hello range covers it — a registration alone must not shadow
// the connection the client actually submits on. Called on the node event
// loop; never blocks — a saturated or absent connection drops the reply
// (false), which the metrics layer counts.
func (s *gwServer) reply(client uint64, frame []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var fallback *gwConn
	target := (*gwConn)(nil)
	for i := len(s.conns) - 1; i >= 0; i-- {
		gc := s.conns[i]
		if client < gc.lo || client >= gc.hi {
			continue
		}
		if gc.sawClient(client) {
			target = gc
			break
		}
		if fallback == nil {
			fallback = gc
		}
	}
	if target == nil {
		target = fallback
	}
	if target == nil {
		return false
	}
	select {
	case target.out <- frame:
		return true
	default:
		return false
	}
}

// drop unregisters a dead connection.
func (s *gwServer) drop(gc *gwConn) {
	s.mu.Lock()
	for i, c := range s.conns {
		if c == gc {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	gc.shutdown()
}

// Addr returns the bound gateway listen address (useful with ":0").
func (s *gwServer) Addr() string { return s.ls.Addr().String() }

func (s *gwServer) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := append([]*gwConn(nil), s.conns...)
	s.conns = nil
	s.mu.Unlock()
	close(s.done)
	s.ls.Close()
	for _, gc := range conns {
		gc.shutdown()
	}
	s.wg.Wait()
}
