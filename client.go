package massbft

// The client library for multi-process deployments: ClientPool multiplexes
// many logical clients over one framed TCP connection per gateway node, and
// Client is one closed-loop submitter on top of it.
//
// A Submit round-trips the paper's external-client protocol: sign the
// request with the client's Ed25519 key, send it to one node of the target
// group (which forwards to its local leader), and wait for f+1 signed
// replies from distinct group nodes matching on (GID, Height, Result) — the
// certificate that at least one honest node executed the request at that
// position. A reply is the node's execution receipt for the whole entry (one
// signature over a Merkle root of the entry's client transactions) plus this
// request's path; the pool's clients check receipt signatures through one
// shared memo (keys.Registry.VerifyMemo), so an entry costs the process f+1
// verifications however many of its clients the entry served. On timeout the
// client rotates to the next group and broadcasts (retransmissions need
// every reachable member: cached dedup-window replies come only from nodes
// that saw the request). Per-client nonces plus each gateway's dedup window
// make the retries idempotent.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/gateway"
	"massbft/internal/keys"
	"massbft/internal/transport"
	"massbft/internal/types"
)

// Client-side errors.
var (
	// ErrGaveUp: the request exhausted its submission attempts without
	// collecting a reply certificate.
	ErrGaveUp = errors.New("massbft: request gave up after max attempts")
	// ErrPoolClosed: the owning ClientPool was closed.
	ErrPoolClosed = errors.New("massbft: client pool closed")
)

// ClientPoolConfig parameterizes DialClients.
type ClientPoolConfig struct {
	// Topology locates gateway addresses and derives all key material.
	Topology *Topology
	// First and Count select the logical client IDs [First, First+Count)
	// this pool serves; IDs are 1-based and must lie within
	// Topology.Clients. Count 0 means every registered ID from First on.
	First, Count uint64
	// Timeout is one attempt's reply-certificate deadline (default 1s);
	// attempts back off exponentially from it.
	Timeout time.Duration
	// MaxAttempts bounds submission attempts per request (0 = 2x groups).
	MaxAttempts int
}

// ClientPool holds the shared gateway connections and key material for a
// range of logical clients. Safe for concurrent use by its Clients.
type ClientPool struct {
	cfg  ClientPoolConfig
	topo *Topology
	reg  *keys.Registry // its receipt-signature memo is shared by every Client
	cks  map[uint64]*keys.ClientKey
	// gateways[g] lists the members of group g that expose a gateway address:
	// the only ones a fresh request may be routed to.
	gateways [][]int

	mu     sync.Mutex
	conns  map[keys.NodeID]*cpConn
	inbox  map[uint64]chan gateway.Reply
	closed bool
	done   chan struct{}
}

// cpConn is one live gateway connection (client side).
type cpConn struct {
	c   net.Conn
	wm  sync.Mutex         // serializes writes from concurrent clients
	out transport.FrameBuf // the request being written; guarded by wm
}

// DialClients builds a client pool. Connections are dialed lazily per
// gateway node on first use, and redialed after failures, so a pool survives
// node crashes as long as f+1 members of some group stay reachable.
func DialClients(cfg ClientPoolConfig) (*ClientPool, error) {
	topo := cfg.Topology
	if topo == nil {
		return nil, fmt.Errorf("massbft: ClientPoolConfig.Topology is required")
	}
	if err := topo.validate(); err != nil {
		return nil, fmt.Errorf("massbft: %w", err)
	}
	if topo.Clients <= 0 {
		return nil, fmt.Errorf("massbft: %s", noClients)
	}
	if cfg.First == 0 {
		cfg.First = 1
	}
	// The range is checked against the count of registered IDs from First
	// on, so no First+Count can wrap past 2^64 back into the registry.
	var left uint64
	if n := uint64(topo.Clients); cfg.First <= n {
		left = n - cfg.First + 1
	}
	if cfg.Count == 0 {
		cfg.Count = left
	}
	if cfg.Count == 0 || cfg.Count > left {
		return nil, fmt.Errorf("massbft: %d clients from ID %d exceed the %d registered clients",
			cfg.Count, cfg.First, topo.Clients)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	ccfg, err := topo.clusterConfig()
	if err != nil {
		return nil, err
	}
	ids, err := cluster.NewIdentities(&ccfg)
	if err != nil {
		return nil, err
	}
	p := &ClientPool{
		cfg:   cfg,
		topo:  topo,
		reg:   ids.Reg,
		cks:   make(map[uint64]*keys.ClientKey, cfg.Count),
		conns: make(map[keys.NodeID]*cpConn),
		inbox: make(map[uint64]chan gateway.Reply),
		done:  make(chan struct{}),
	}
	for id := cfg.First; id < cfg.First+cfg.Count; id++ {
		p.cks[id] = ids.ClientKeys[id-1]
	}
	p.gateways = make([][]int, len(topo.Groups))
	for _, na := range topo.Nodes {
		if na.Gateway != "" {
			p.gateways[na.Group] = append(p.gateways[na.Group], na.Index)
		}
	}
	return p, nil
}

// Client returns the closed-loop submitter for one logical client ID within
// the pool's range. Each Client must be driven by a single goroutine.
func (p *ClientPool) Client(id uint64) (*Client, error) {
	ck := p.cks[id]
	if ck == nil {
		return nil, fmt.Errorf("massbft: client %d outside pool range", id)
	}
	inbox := make(chan gateway.Reply, 64)
	p.mu.Lock()
	p.inbox[id] = inbox
	p.mu.Unlock()
	return &Client{
		p:     p,
		key:   ck,
		inbox: inbox,
		req: gateway.NewRequester(gateway.RequesterConfig{
			Client:      id,
			Groups:      len(p.topo.Groups),
			Faulty:      p.reg.Faulty,
			Verify:      p.reg.VerifyMemo,
			Timeout:     p.cfg.Timeout,
			MaxAttempts: p.cfg.MaxAttempts,
		}),
	}, nil
}

// Close tears down every gateway connection; in-flight Submits return
// ErrPoolClosed.
func (p *ClientPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := p.conns
	p.conns = map[keys.NodeID]*cpConn{}
	p.mu.Unlock()
	close(p.done)
	for _, cc := range conns {
		cc.c.Close()
	}
}

// conn returns (dialing if needed) the shared connection to one gateway
// node, nil when the node exposes no gateway or is unreachable right now.
func (p *ClientPool) conn(id keys.NodeID) *cpConn {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	if cc, ok := p.conns[id]; ok {
		p.mu.Unlock()
		return cc
	}
	p.mu.Unlock()

	var addr string
	for _, na := range p.topo.Nodes {
		if na.Group == id.Group && na.Index == id.Index {
			addr = na.Gateway
		}
	}
	if addr == "" {
		return nil
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil
	}
	// Hello: register the pool's whole client ID range on this connection
	// so every member that executes can route its reply back here.
	hello := make([]byte, 0, 17)
	hello = append(hello, gwHello)
	hello = binary.BigEndian.AppendUint64(hello, p.cfg.First)
	hello = binary.BigEndian.AppendUint64(hello, p.cfg.First+p.cfg.Count)
	c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write(transport.AppendFrame(nil, transport.FlagControl, hello)); err != nil {
		c.Close()
		return nil
	}
	c.SetWriteDeadline(time.Time{})

	cc := &cpConn{c: c}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return nil
	}
	if prev, ok := p.conns[id]; ok { // lost a dial race: keep the first
		p.mu.Unlock()
		c.Close()
		return prev
	}
	p.conns[id] = cc
	p.mu.Unlock()
	go p.readLoop(id, cc)
	return cc
}

// readLoop demultiplexes one connection's replies into per-client inboxes.
// Any error drops the connection; the next send redials.
func (p *ClientPool) readLoop(id keys.NodeID, cc *cpConn) {
	br := bufio.NewReaderSize(cc.c, transport.ReadBuffer)
	for {
		_, payload, err := transport.ReadFrame(br)
		if err != nil {
			p.dropConn(id, cc)
			return
		}
		msg, err := cluster.DecodeEnvelope(payload)
		if err != nil {
			continue
		}
		rep, ok := msg.(*cluster.ClientReply)
		if !ok {
			continue
		}
		p.mu.Lock()
		inbox := p.inbox[rep.Client]
		p.mu.Unlock()
		if inbox == nil {
			continue
		}
		select {
		case inbox <- rep.Reply():
		default: // slow client: shed — the certificate needs only f+1
		}
	}
}

func (p *ClientPool) dropConn(id keys.NodeID, cc *cpConn) {
	p.mu.Lock()
	if p.conns[id] == cc {
		delete(p.conns, id)
	}
	p.mu.Unlock()
	cc.c.Close()
}

// send writes one ClientRequest frame to node (group g, index j). Errors
// drop the connection; the retry machinery absorbs the loss.
func (p *ClientPool) send(id keys.NodeID, txn types.Transaction) {
	cc := p.conn(id)
	if cc == nil {
		return
	}
	req := &cluster.ClientRequest{Txn: txn}
	enc, err := cluster.EncodeEnvelope(req)
	if err != nil || len(enc) > transport.MaxFrameSize { // the gateway would drop the connection
		return
	}
	cc.wm.Lock()
	cc.out.Add(0, enc)
	cc.c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, werr := cc.out.Flush(cc.c)
	cc.wm.Unlock()
	if werr != nil {
		p.dropConn(id, cc)
	}
}

// Client is one closed-loop logical client: at most one request in flight,
// driven by a single goroutine through Submit.
type Client struct {
	p     *ClientPool
	key   *keys.ClientKey
	req   *gateway.Requester
	inbox chan gateway.Reply
	nonce uint64
}

// ID returns the client's registered identity.
func (c *Client) ID() uint64 { return c.key.ID }

// Submit signs and submits one request, blocking until it holds an f+1
// reply certificate (possibly after cross-group resubmission) or gives up.
func (c *Client) Submit(payload []byte) (gateway.Result, error) {
	c.nonce++
	txn := types.Transaction{Client: c.key.ID, Nonce: c.nonce, Payload: payload}
	txn.Sig = c.key.Sign(keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload))

	g := c.req.Begin(c.nonce, time.Now())
	c.deliver(g, txn, false)

	// Poll granularity: fine enough to honor the attempt deadline promptly,
	// coarse enough not to spin.
	tick := c.p.cfg.Timeout / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case rep := <-c.inbox:
			if done, res := c.req.OnReply(rep, time.Now()); done {
				return res, nil
			}
		case <-tk.C:
			resubmit, g, gaveUp := c.req.OnTick(time.Now())
			if gaveUp {
				return gateway.Result{}, ErrGaveUp
			}
			if resubmit {
				c.deliver(g, txn, true)
			}
		case <-c.p.done:
			return gateway.Result{}, ErrPoolClosed
		}
	}
}

// deliver submits txn to group g: the first attempt to a single member,
// retransmissions to the whole group (gateway.FirstTarget). The rotation runs
// over the members that expose a gateway — a member without one cannot take
// the request, and the client would sit out the whole attempt timeout.
func (c *Client) deliver(g int, txn types.Transaction, broadcast bool) {
	gws := c.p.gateways[g]
	if !broadcast && len(gws) > 0 {
		k := gateway.FirstTarget(c.key.ID, c.nonce, len(gws))
		gws = gws[k : k+1]
	}
	for _, j := range gws {
		c.p.send(keys.NodeID{Group: g, Index: j}, txn)
	}
}
