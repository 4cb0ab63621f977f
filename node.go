package massbft

// Multi-process deployment: StartNode hosts ONE protocol node in this
// process and wires it to its peers over the real TCP transport
// (internal/transport/tcp) instead of the in-process emulator. Every
// process loads the same Topology (group sizes, shared seed, per-node
// addresses); keys.GenerateCluster is deterministic, so all processes
// derive identical key material and certificates verify across machines
// without any key distribution step. cmd/massbft-node is the thin CLI over
// this API.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/core"
	"massbft/internal/forensics"
	"massbft/internal/keys"
	"massbft/internal/metrics"
	"massbft/internal/transport"
	"massbft/internal/transport/tcp"
)

// NodeAddr binds one cluster position to a dialable address.
type NodeAddr struct {
	Group int    `json:"group"`
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	// Gateway, when set, opens a client-facing gateway listener on this
	// address (requires Topology.Clients > 0). Nodes without one still
	// serve consensus — clients just cannot connect to them directly.
	Gateway string `json:"gateway,omitempty"`
}

// Topology is the static description of a multi-process cluster, shared by
// every process (typically as a JSON file). Durations are milliseconds so
// the JSON stays human-editable.
type Topology struct {
	// Groups lists the node count per group; Nodes must cover exactly
	// these positions.
	Groups []int      `json:"groups"`
	Nodes  []NodeAddr `json:"nodes"`
	// Seed derives all key material (deterministically, so every process
	// agrees) and transport jitter.
	Seed int64 `json:"seed"`

	Protocol Protocol `json:"protocol,omitempty"`
	Workload string   `json:"workload,omitempty"`

	BatchTimeoutMS       int       `json:"batch_timeout_ms,omitempty"`
	MaxBatch             int       `json:"max_batch,omitempty"`
	PipelineDepth        int       `json:"pipeline_depth,omitempty"`
	GroupRate            []float64 `json:"group_rate,omitempty"`
	ViewChangeTimeoutMS  int       `json:"view_change_timeout_ms,omitempty"`
	TakeoverTimeoutMS    int       `json:"takeover_timeout_ms,omitempty"`
	SuspectTimeoutMS     int       `json:"suspect_timeout_ms,omitempty"`
	RepairTimeoutMS      int       `json:"repair_timeout_ms,omitempty"`
	CheckpointIntervalMS int       `json:"checkpoint_interval_ms,omitempty"`
	RejoinTimeoutMS      int       `json:"rejoin_timeout_ms,omitempty"`
	// RealCrypto verifies Ed25519 signatures for real (recommended off
	// loopback; on a real WAN you want it).
	RealCrypto bool `json:"real_crypto,omitempty"`

	// Clients is the size of the client key registry (IDs 1..Clients),
	// derived deterministically from Seed on every node and every client
	// process. Zero disables the client gateway: leaders self-generate the
	// synthetic workload instead, as before.
	Clients int `json:"clients,omitempty"`
	// GatewayQueue bounds each node's intake queue (0 = gateway default);
	// GatewayRate/GatewayBurst set the per-client token bucket (0 = off).
	GatewayQueue int     `json:"gateway_queue,omitempty"`
	GatewayRate  float64 `json:"gateway_rate,omitempty"`
	GatewayBurst int     `json:"gateway_burst,omitempty"`

	// StandbyGroups marks the highest-numbered groups as provisioned
	// standbys: their processes run and answer bootstrap traffic but hold no
	// votes and propose nothing until a certified epoch switch admits them
	// (ProcNode.Reconfigure / the -reconfigure flag of cmd/massbft-node).
	// Requires takeover_timeout_ms > 0 and the default MassBFT protocol
	// options, mirroring the simulator's Config.StandbyGroups.
	StandbyGroups int `json:"standby_groups,omitempty"`
}

// LoadTopology reads and validates a topology JSON file.
func LoadTopology(path string) (*Topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Topology
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("massbft: topology %s: %w", path, err)
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("massbft: topology %s: %w", path, err)
	}
	return &t, nil
}

// validate checks the layout and protocol rules (cluster.Config.Validate,
// through clusterConfig), then that Nodes covers exactly the layout, binds no
// address twice, and names gateway addresses only beside registered clients
// (without them no listener opens and the leaders self-generate load).
func (t *Topology) validate() error {
	if _, err := t.clusterConfig(); err != nil {
		return err
	}
	want := 0
	for _, n := range t.Groups {
		want += n
	}
	seen := make(map[keys.NodeID]bool, len(t.Nodes))
	bound := make(map[string]bool, 2*len(t.Nodes))
	for _, na := range t.Nodes {
		id := keys.NodeID{Group: na.Group, Index: na.Index}
		if na.Group < 0 || na.Group >= len(t.Groups) || na.Index < 0 || na.Index >= t.Groups[na.Group] {
			return fmt.Errorf("node %v outside the group layout", id)
		}
		if na.Addr == "" {
			return fmt.Errorf("node %v has no address", id)
		}
		if seen[id] {
			return fmt.Errorf("node %v listed twice", id)
		}
		seen[id] = true
		if na.Gateway != "" && t.Clients <= 0 {
			return fmt.Errorf("node %v names a gateway address but the %s", id, noClients)
		}
		for _, a := range []string{na.Addr, na.Gateway} {
			if a == "" {
				continue
			}
			if bound[a] {
				return fmt.Errorf("address %s listed twice", a)
			}
			bound[a] = true
		}
	}
	if len(seen) != want {
		return fmt.Errorf("topology lists %d node addresses, layout needs %d", len(seen), want)
	}
	return nil
}

// noClients is what validate and DialClients say of a topology whose
// "clients" is unset.
const noClients = `topology registers no clients (set "clients")`

// addr returns the dial address of a node.
func (t *Topology) addr(id keys.NodeID) (string, bool) {
	for _, na := range t.Nodes {
		if na.Group == id.Group && na.Index == id.Index {
			return na.Addr, true
		}
	}
	return "", false
}

// clusterConfig translates the topology into the internal protocol config,
// validated and with defaults applied.
func (t *Topology) clusterConfig() (cluster.Config, error) {
	opts, err := t.Protocol.options()
	if err != nil {
		return cluster.Config{}, err
	}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	cfg := cluster.Config{
		GroupSizes:         t.Groups,
		Opts:               opts,
		Workload:           t.Workload,
		Seed:               t.Seed,
		BatchTimeout:       ms(t.BatchTimeoutMS),
		MaxBatch:           t.MaxBatch,
		PipelineDepth:      t.PipelineDepth,
		GroupRate:          t.GroupRate,
		TrustAll:           !t.RealCrypto,
		ViewChangeTimeout:  ms(t.ViewChangeTimeoutMS),
		TakeoverTimeout:    ms(t.TakeoverTimeoutMS),
		SuspectTimeout:     ms(t.SuspectTimeoutMS),
		RepairTimeout:      ms(t.RepairTimeoutMS),
		CheckpointInterval: ms(t.CheckpointIntervalMS),
		RejoinTimeout:      ms(t.RejoinTimeoutMS),
		StandbyGroups:      t.StandbyGroups,
		Gateway: cluster.GatewayConfig{
			Clients:       t.Clients,
			QueueLimit:    t.GatewayQueue,
			RatePerClient: t.GatewayRate,
			RateBurst:     t.GatewayBurst,
		},
	}.WithDefaults()
	return cfg, cfg.Validate()
}

// NodeConfig configures one process-hosted node.
type NodeConfig struct {
	Topology *Topology
	// Group/Index identify which topology position this process hosts.
	Group, Index int
	// Listen overrides the listen address (defaults to the topology's
	// address for this node — override when binding 0.0.0.0 behind NAT).
	Listen string
	// Rejoin starts the node through the checkpointed-rejoin protocol
	// instead of cold: use when restarting a crashed process so it fetches
	// a checkpoint from a LAN peer and catches up.
	Rejoin bool
	// GatewayListen overrides the client gateway listen address (defaults
	// to the topology's Gateway address for this node).
	GatewayListen string
	// Logf receives transport lifecycle events and the node's state-machine
	// transitions but a slot's phases (nil = silent).
	Logf func(format string, args ...any)
}

// ProcNode is one running process-hosted protocol node.
type ProcNode struct {
	id   keys.NodeID
	tcpn *tcp.Network
	ep   transport.Endpoint
	node *core.Node
	cfg  *cluster.Config
	col  *metrics.Collector
	gws  *gwServer // client-facing gateway listener, nil unless configured
	logf func(format string, args ...any)
	// agreement is the latest NoteAgreement verdict (event-loop confined,
	// like the collector).
	agreement *AgreementSummary
}

// GatewayAddr returns the bound client gateway address, "" when the node
// hosts no gateway listener.
func (n *ProcNode) GatewayAddr() string {
	if n.gws == nil {
		return ""
	}
	return n.gws.Addr()
}

// TrailPoint is one (height, block-hash) sample of a node's recent chain.
type TrailPoint struct {
	Height uint64 `json:"h"`
	Hash   string `json:"hash"`
}

// NodeStatus is a consistent snapshot of a running node, sampled on its
// event loop.
type NodeStatus struct {
	Group  int    `json:"group"`
	Index  int    `json:"index"`
	NowMS  int64  `json:"now_ms"`
	Height uint64 `json:"height"`
	Head   string `json:"head"`
	State  string `json:"state"`

	Committed int64 `json:"committed"`
	Aborted   int64 `json:"aborted"`
	Entries   int64 `json:"entries"`

	// Epoch is the node's certified membership epoch (0 = genesis member
	// set); Active lists the groups it as of that epoch considers members.
	// Cross-process agreement on these is how an operator verifies a
	// reconfiguration landed everywhere.
	Epoch  uint64 `json:"epoch"`
	Active []int  `json:"active,omitempty"`

	// Trail holds the hashes of the last min(Height, 32) blocks, ascending,
	// so two nodes at different heights can still be checked for prefix
	// agreement (ClassifyStatuses).
	Trail []TrailPoint `json:"trail"`

	Counters  map[string]int64 `json:"counters,omitempty"`
	Transport tcp.Stats        `json:"transport"`

	// Agreement carries the latest cross-node verdict when the operator
	// wired peer snapshots in (NoteAgreement / massbft-node -peers-status);
	// nil when no classification has run on this node.
	Agreement *AgreementSummary `json:"agreement,omitempty"`
}

// StartNode builds and starts one protocol node over TCP. The returned node
// runs until Stop.
func StartNode(nc NodeConfig) (*ProcNode, error) {
	topo := nc.Topology
	if topo == nil {
		return nil, fmt.Errorf("massbft: NodeConfig.Topology is required")
	}
	if err := topo.validate(); err != nil {
		return nil, fmt.Errorf("massbft: %w", err)
	}
	id := keys.NodeID{Group: nc.Group, Index: nc.Index}
	self, ok := topo.addr(id)
	if !ok {
		return nil, fmt.Errorf("massbft: node %v not in topology", id)
	}
	listen := nc.Listen
	if listen == "" {
		listen = self
	}
	cfg, err := topo.clusterConfig()
	if err != nil {
		return nil, err
	}
	ids, err := cluster.NewIdentities(&cfg)
	if err != nil {
		return nil, err
	}
	gen, err := cfg.GroupWorkload(id.Group)
	if err != nil {
		return nil, err
	}

	peers := make(map[keys.NodeID]string, len(topo.Nodes))
	for _, na := range topo.Nodes {
		pid := keys.NodeID{Group: na.Group, Index: na.Index}
		if pid != id {
			peers[pid] = na.Addr
		}
	}
	tcpn, err := tcp.New(tcp.Config{
		Self:   id,
		Listen: listen,
		Peers:  peers,
		Encode: cluster.EncodeEnvelope,
		Decode: cluster.DecodeEnvelope,
		Seed:   topo.Seed ^ int64(id.Group)<<24 ^ int64(id.Index),
		Logf:   nc.Logf,
	})
	if err != nil {
		return nil, err
	}

	col := metrics.NewCollector()
	col.SetWindow(0, 1<<62) // real deployments measure everything

	// Every process observes itself: the collector is process-local.
	p := cluster.NewProcess(cfg, ids, col)
	// The node's collector is the process's only one: no other would ever
	// hit a seed or a decode it memoized.
	p.RebuildMemo = nil
	logf := nc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p.OnTransition = func(id keys.NodeID, tr cluster.Transition) {
		if !tr.Kind.Phase() {
			logf("massbft: %v transition %+v", id, tr)
		}
	}
	ctx := p.NodeCtx(id, tcpn.Endpoint(id), gen, true)
	n := &ProcNode{id: id, tcpn: tcpn, cfg: &p.Cfg, col: col, logf: logf}
	n.ep = ctx.Net
	n.node = core.New(ctx)
	tcpn.SetHandler(id, n.node)
	if ctx.Gateway != nil {
		gwAddr := nc.GatewayListen
		if gwAddr == "" {
			for _, na := range topo.Nodes {
				if na.Group == nc.Group && na.Index == nc.Index {
					gwAddr = na.Gateway
				}
			}
		}
		if gwAddr != "" {
			gws, err := startGateway(n, gwAddr)
			if err != nil {
				tcpn.Close()
				return nil, fmt.Errorf("massbft: gateway listen %s: %w", gwAddr, err)
			}
			n.gws = gws
			ctx.ReplyOut = n.sendReply
		}
	}
	started := n.onLoop(func() {
		n.node.Start()
		if nc.Rejoin {
			n.node.Rejoin()
		}
	})
	if !started {
		tcpn.Close()
		return nil, fmt.Errorf("massbft: node %v failed to start", id)
	}
	return n, nil
}

// onLoop runs fn on the node's event loop — protocol state and the collector
// are confined to it, never touched from a caller's goroutine — and reports
// whether it ran within five seconds.
func (n *ProcNode) onLoop(fn func()) bool {
	done := make(chan struct{})
	n.ep.After(0, func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// sendReply encodes one reply and hands it to the gateway server, whose
// connection writers frame it. One past transport.MaxFrameSize is refused
// here: the client would drop the connection on it.
func (n *ProcNode) sendReply(rep *cluster.ClientReply) {
	enc, err := cluster.EncodeEnvelope(rep)
	if err != nil || len(enc) > transport.MaxFrameSize {
		return
	}
	if n.gws.reply(rep.Client, enc) {
		n.col.GatewayReplySent++
	} else {
		// No live connection (or a saturated one) for this client
		// here: drop — f+1 OTHER group members also reply.
		n.col.GatewayReplyUnrouted++
	}
}

// TransportStats snapshots the TCP backend's health counters.
func (n *ProcNode) TransportStats() tcp.Stats { return n.tcpn.Stats() }

// Reconfigure injects an administrative membership trigger (ReconfigJoin /
// ReconfigLeave for the given group) into this node and broadcasts it to
// every peer over the fabric. The trigger is unauthenticated intent: each
// correct group independently turns it into a certified vote, and only a
// Byzantine quorum of those certified approvals switches the epoch — so the
// operator needs to reach only one live process, and a duplicated or lost
// trigger is harmless. Requires Topology.StandbyGroups for a join target.
func (n *ProcNode) Reconfigure(op byte, group int) {
	n.ep.After(0, func() {
		msg := &cluster.ReconfigureMsg{Op: op, Group: group}
		for g, size := range n.cfg.GroupSizes {
			for j := 0; j < size; j++ {
				to := keys.NodeID{Group: g, Index: j}
				if to == n.id {
					continue
				}
				n.ep.Send(to, msg, msg.WireSize())
			}
		}
		n.node.HandleMessage(transport.Message{
			From: keys.NodeID{Group: -1, Index: -1}, To: n.id,
			Payload: msg, Size: msg.WireSize(),
		})
	})
}

// NoteAgreement records an operator-computed cross-node agreement verdict
// (ClassifyStatuses over this node's and its peers' status snapshots) on the
// node: the verdict lands in the next Status() snapshot, and the divergence
// counters — "forked-detected", "wedged-detected",
// "agreement-first-div-height" — land in the metrics collector so they
// surface through the status file's counters map alongside the protocol's
// recovery counters.
func (n *ProcNode) NoteAgreement(sum AgreementSummary) {
	n.ep.After(0, func() {
		n.agreement = &sum
		forensics.Count(&n.col.Counts, sum.Verdict, sum.FirstDivergentHeight)
	})
}

// Status samples the node's protocol state on its event loop (so the
// snapshot is internally consistent) plus the transport counters.
func (n *ProcNode) Status() (NodeStatus, error) {
	ts := n.tcpn.Stats()
	var st NodeStatus
	ok := n.onLoop(func() {
		st = NodeStatus{
			Group: n.id.Group, Index: n.id.Index,
			NowMS:     int64(n.ep.Now() / time.Millisecond),
			Committed: n.col.Committed(),
			Aborted:   n.col.Aborted(),
			Entries:   n.col.Entries(),
			Counters:  n.col.Counters(),
			Agreement: n.agreement,
		}
		for name, v := range map[string]uint64{"connects": ts.Connects, "reconnects": ts.Reconnects,
			"dial-failures": ts.DialFailures, "send-timeouts": ts.SendTimeouts, "queue-drop-bulk": ts.QueueDropBulk,
			"queue-drop-prio": ts.QueueDropPrio, "heartbeat-misses": ts.HeartbeatMisses,
			"bytes-out": ts.BytesOut, "bytes-in": ts.BytesIn} {
			st.Counters["transport-"+name] = int64(v)
		}
		for k, v := range ts.DropsByKind {
			st.Counters["transport-drop-"+cluster.EnvelopeKindName(k)] = int64(v)
		}
		st.Epoch, st.Active = n.node.EpochInfo()
		st.setChain(n.node.Ledger(), n.node.DB().Hash())
	})
	if !ok {
		return NodeStatus{}, fmt.Errorf("massbft: node %v event loop unresponsive", n.id)
	}
	st.Transport = ts
	return st, nil
}

// Stop drains the node: client load stops (leaders switch to heartbeats),
// the drain window lets in-flight work settle, then the transport flushes
// its queues and shuts down.
func (n *ProcNode) Stop(drain time.Duration) error {
	if n.onLoop(func() { n.cfg.Draining = true }) && drain > 0 {
		time.Sleep(drain)
	}
	if n.gws != nil {
		n.gws.close()
	}
	return n.tcpn.Close()
}
