package massbft

import (
	"fmt"
	"io"
	"os"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/core"
	"massbft/internal/forensics"
	"massbft/internal/keys"
	"massbft/internal/simnet"
	"massbft/internal/trace"
)

// Protocol selects which of the paper's evaluated protocols a cluster runs
// (Table II).
type Protocol string

// Supported protocols and ablations.
const (
	// ProtocolMassBFT is the paper's contribution: encoded bijective
	// replication + asynchronous VTS ordering.
	ProtocolMassBFT Protocol = "massbft"
	// ProtocolBaseline is the generic geo-consensus model of §II-A.
	ProtocolBaseline Protocol = "baseline"
	// ProtocolGeoBFT broadcasts directly without global consensus.
	ProtocolGeoBFT Protocol = "geobft"
	// ProtocolSteward serializes proposals across groups.
	ProtocolSteward Protocol = "steward"
	// ProtocolISS adds epoch barriers on top of Baseline.
	ProtocolISS Protocol = "iss"
	// ProtocolBR is the plain bijective replication ablation (Fig 12).
	ProtocolBR Protocol = "br"
	// ProtocolEBR is encoded bijective replication without async ordering
	// (Fig 12).
	ProtocolEBR Protocol = "ebr"
)

// Protocols lists all supported protocol names.
func Protocols() []Protocol {
	return []Protocol{ProtocolMassBFT, ProtocolBaseline, ProtocolGeoBFT,
		ProtocolSteward, ProtocolISS, ProtocolBR, ProtocolEBR}
}

// options maps a Protocol to the core node's mode switches.
func (p Protocol) options() (cluster.Options, error) {
	switch p {
	case ProtocolMassBFT, "":
		return cluster.PresetMassBFT(), nil
	case ProtocolBaseline:
		return cluster.PresetBaseline(), nil
	case ProtocolGeoBFT:
		return cluster.PresetGeoBFT(), nil
	case ProtocolSteward:
		return cluster.PresetSteward(), nil
	case ProtocolISS:
		return cluster.PresetISS(100 * time.Millisecond), nil // the paper's 0.1 s epochs
	case ProtocolBR:
		return cluster.PresetBR(), nil
	case ProtocolEBR:
		return cluster.PresetEBR(), nil
	}
	return cluster.Options{}, fmt.Errorf("massbft: unknown protocol %q", p)
}

// LatencyModel gives the one-way WAN latency between two groups.
type LatencyModel func(fromGroup, toGroup int) time.Duration

// Nationwide is the paper's nationwide Aliyun cluster latency matrix
// (RTTs 26.7-43.4 ms).
func Nationwide(i, j int) time.Duration { return cluster.NationwideLatency(i, j) }

// Worldwide is the paper's worldwide cluster latency matrix
// (RTTs 156-206 ms).
func Worldwide(i, j int) time.Duration { return cluster.WorldwideLatency(i, j) }

// Config configures a cluster. Zero values select the paper's defaults
// (nationwide latencies, 20 Mbps WAN per node, 20 ms batch timeout).
type Config struct {
	// Groups lists the node count per group (data center); e.g. {7,7,7}.
	Groups []int
	// Protocol selects the consensus protocol (default ProtocolMassBFT).
	Protocol Protocol
	// Workload is a built-in workload name ("ycsb-a", "ycsb-b",
	// "smallbank", "tpcc"); ignored when Custom is set.
	Workload string
	// Custom plugs in application-defined transactions (see CustomWorkload).
	Custom CustomWorkload
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed int64

	// Latency is the WAN latency model (default Nationwide); NewCluster
	// reads it once per ordered pair of groups. WANBandwidth is per-node
	// bytes/second (default 20 Mbps).
	Latency      LatencyModel
	WANBandwidth float64
	// Globe replaces the named latency models with a procedurally generated
	// planet-scale geometry: every group becomes a region placed on a sphere
	// (seeded from Seed), one-way latencies follow great-circle fiber
	// distance (RTTs span roughly 10-380 ms at 50 regions, bracketing both
	// named models), and — unless WANBandwidth is set — regions cycle
	// through 1 Gbps / 100 Mbps / 20 Mbps bandwidth tiers. This is the
	// geometry for scaling the region count past the named models' envelope;
	// an explicit Latency model takes precedence.
	Globe bool

	// BatchTimeout, MaxBatch, and PipelineDepth control the proposers.
	BatchTimeout  time.Duration
	MaxBatch      int
	PipelineDepth int
	// GroupRate throttles per-group offered load in transactions/second
	// (zero = saturation).
	GroupRate []float64
	// GatewayClients, when > 0, switches the cluster to gateway-driven
	// load: that many simulated closed-loop clients sign requests, submit
	// them through each node's client gateway (authenticated intake,
	// adaptive batching, admission control), and collect f+1 signed reply
	// certificates. Leaders then propose only what clients submitted,
	// instead of self-generating the synthetic workload. See Result's
	// Client* fields for the client-side outcome.
	GatewayClients int

	// Warmup excludes the run's first phase from aggregate metrics.
	Warmup time.Duration
	// RealCrypto verifies every Ed25519 signature for real instead of
	// charging the calibrated CPU cost model (slower; used by tests).
	RealCrypto bool
	// SerialVTS selects the serial (3-RTT) vector-timestamp assignment of
	// Fig 7a instead of the overlapped (2-RTT) default of Fig 7b; only
	// meaningful for ProtocolMassBFT (the §V-B ablation).
	SerialVTS bool
	// ViewChangeTimeout enables local leader replacement; TakeoverTimeout
	// enables the quorum-witnessed group failover (§V-C): observing groups
	// certify GroupSuspect attestations after SuspectTimeout of stream
	// silence, and a Byzantine quorum of suspicions lets the designated
	// successor certify the GroupDead decision that unlocks takeover.
	ViewChangeTimeout time.Duration
	TakeoverTimeout   time.Duration
	// SuspectTimeout is how long a group's record stream must stay silent
	// before other groups certify a suspicion (default 4x TakeoverTimeout).
	SuspectTimeout time.Duration

	// RepairTimeout arms the recovery scans (chunk-gap repair, entry fetch
	// retry with peer rotation, stream-gap repair); zero disables them.
	RepairTimeout time.Duration
	// Deprecated: CheckpointInterval is read by nothing. Nodes keep no
	// rolling checkpoint; a rejoining node gets a fresh fold, with a copy of
	// the state, on demand.
	CheckpointInterval time.Duration
	// RejoinTimeout bounds one state-transfer attempt of a recovering node
	// before it retries another group peer.
	RejoinTimeout time.Duration

	// Fault injection (deterministic, seeded from Seed): per-message WAN
	// and LAN drop and WAN duplicate probabilities plus extra latency
	// jitter, applied by the network fault layer. All zero disables the
	// layer entirely, keeping fault-free runs bit-identical across versions.
	WANDropRate float64
	WANDupRate  float64
	LANDropRate float64
	FaultJitter float64

	// StandbyGroups marks the highest-numbered groups of Groups as
	// provisioned but inactive at genesis: they hold keys and addresses but
	// no state, propose nothing, and do not count toward record quorums.
	// A standby group enters the cluster only through a certified epoch
	// reconfiguration (Reconfigure with ReconfigJoin): it bootstraps state
	// from the active groups, a Byzantine quorum of active groups certifies
	// the join, and every node switches epochs at the identical certified
	// boundary. Requires TakeoverTimeout > 0, ProtocolMassBFT and the
	// overlapped VTS assignment (SerialVTS unset).
	StandbyGroups int

	// TracePath, when non-empty, enables per-entry lifecycle tracing;
	// Cluster.WriteTrace writes the spans there as a Chrome trace-event JSON
	// file (loadable in Perfetto or chrome://tracing). Tracing is purely passive:
	// a traced run commits the bit-identical ledger and state hashes of an
	// untraced one. See Result.Trace for the critical-path analysis.
	TracePath string
}

// Cluster is a running (or runnable) consensus deployment.
type Cluster struct {
	inner     *cluster.Cluster
	ran       time.Duration
	tracePath string
	traceErr  error
}

// NewCluster validates cfg and wires the deployment on the deterministic
// in-process emulator, the only fabric where Run's virtual time is
// meaningful. To run over real sockets, deploy one process per node with
// StartNode or cmd/massbft-node instead.
func NewCluster(cfg Config) (*Cluster, error) {
	opts, err := cfg.Protocol.options()
	if err != nil {
		return nil, err
	}
	if cfg.SerialVTS {
		opts.OverlapVTS = false
	}
	var topo *simnet.Topology
	// An empty layout is cluster.New's to reject; a topology of zero regions panics.
	if n := len(cfg.Groups); n > 0 {
		if cfg.Globe && cfg.Latency == nil {
			topo = simnet.GlobeTopology(n, cfg.Seed)
			if cfg.WANBandwidth == 0 {
				topo.BandwidthTiers(1e9/8, 100e6/8, 20e6/8)
			}
		} else {
			lat := cfg.Latency
			if lat == nil {
				lat = Nationwide
			}
			topo = simnet.ModelTopology(n, lat)
		}
		if cfg.WANBandwidth > 0 {
			topo.BandwidthTiers(cfg.WANBandwidth)
		}
	}
	inner := cluster.Config{
		GroupSizes:    cfg.Groups,
		Opts:          opts,
		Workload:      cfg.Workload,
		Seed:          cfg.Seed,
		Topology:      topo,
		BatchTimeout:  cfg.BatchTimeout,
		MaxBatch:      cfg.MaxBatch,
		PipelineDepth: cfg.PipelineDepth,
		GroupRate:     cfg.GroupRate,
		TrustAll:      !cfg.RealCrypto,
		Gateway: cluster.GatewayConfig{
			SimClients: cfg.GatewayClients,
		},
		StandbyGroups:     cfg.StandbyGroups,
		Warmup:            cfg.Warmup,
		ViewChangeTimeout: cfg.ViewChangeTimeout,
		TakeoverTimeout:   cfg.TakeoverTimeout,
		SuspectTimeout:    cfg.SuspectTimeout,

		RepairTimeout: cfg.RepairTimeout,
		RejoinTimeout: cfg.RejoinTimeout,
		WANDropRate:   cfg.WANDropRate,
		WANDupRate:    cfg.WANDupRate,
		LANDropRate:   cfg.LANDropRate,
		FaultJitter:   cfg.FaultJitter,
		TraceEnabled:  cfg.TracePath != "",
	}
	if cfg.Custom != nil {
		registerCustom(&inner, cfg.Custom, cfg.Seed)
	}
	// cluster.New validates the group layout and the StandbyGroups rules
	// (cluster.Config.Validate, shared with Topology).
	c, err := cluster.New(inner, core.NewNode)
	if err != nil {
		return nil, fmt.Errorf("massbft: %w", err)
	}
	return &Cluster{inner: c, tracePath: cfg.TracePath}, nil
}

// Run advances the cluster by d of virtual time and returns the cumulative
// results. It can be called repeatedly to continue the same run.
func (c *Cluster) Run(d time.Duration) Result {
	c.ran += d
	// The metrics window covers everything after warm-up up to the current
	// end of run.
	c.inner.Metrics.SetWindow(c.inner.Cfg.Warmup, c.ran)
	c.inner.Cfg.RunFor = c.ran
	c.inner.RunUntil(c.ran)
	return c.result()
}

// WriteTrace exports the spans recorded so far as Chrome trace-event JSON
// to Config.TracePath, replacing the file; call it once, after the last Run
// or Drain. It does nothing when tracing is off.
func (c *Cluster) WriteTrace() error {
	if c.tracePath == "" || c.inner.Trace == nil {
		return nil
	}
	f, err := os.Create(c.tracePath)
	if err == nil {
		err = trace.WriteChrome(f, c.inner.Trace.Spans(), c.inner.Cfg.GroupSizes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	c.traceErr = err
	return err
}

// TraceError reports the most recent WriteTrace failure (nil when tracing
// is off, nothing was exported yet, or the last export succeeded).
func (c *Cluster) TraceError() error { return c.traceErr }

// Drain stops client load and runs d more virtual time so every in-flight
// entry executes on every live node; call before comparing StateHash across
// nodes. Further Run calls continue in drained mode.
func (c *Cluster) Drain(d time.Duration) {
	c.ran += d
	c.inner.Drain(d)
}

// CrashGroup schedules a full data-center outage at virtual time `at`.
func (c *Cluster) CrashGroup(at time.Duration, group int) {
	c.inner.ScheduleGroupCrash(at, group)
}

// MakeByzantine makes followers 1..perGroup of every group Byzantine from
// virtual time `at`, 0 included (§VI-E): every chunk batch they send — their
// share of an entry, a forward, a repair reply — carries a tampered entry's
// chunks under the honest certificate. Their counter is "net-corrupted".
func (c *Cluster) MakeByzantine(at time.Duration, perGroup int) {
	c.inner.ScheduleByzantine(at, perGroup)
}

// PartitionWAN severs all traffic between groups a and b from virtual time
// `at` until `healAt` (0 = never heals). Both directions drop; the failover
// protocol guarantees at most one certified GroupDead decision can form
// regardless of which side the successor lands on.
func (c *Cluster) PartitionWAN(at, healAt time.Duration, a, b int) {
	c.inner.SchedulePartition(at, healAt, a, b)
}

// Reconfiguration operations for Cluster.Reconfigure / ProcNode.Reconfigure.
const (
	// ReconfigJoin admits a standby group (see Config.StandbyGroups).
	ReconfigJoin = cluster.ReconfigJoin
	// ReconfigLeave removes an active group behind a certified cut.
	ReconfigLeave = cluster.ReconfigLeave
)

// Reconfigure delivers an administrative membership trigger to every live
// node at virtual time `at`: op ReconfigJoin admits standby group `group`
// (it bootstraps state from the active groups first), op ReconfigLeave
// drains and removes active group `group`. The trigger is only intent —
// membership changes exactly when a Byzantine quorum of member groups has
// certified approval records and the target group's successor certifies the
// epoch switch, so lost or duplicated triggers are harmless.
func (c *Cluster) Reconfigure(at time.Duration, op byte, group int) {
	c.inner.ScheduleReconfigure(at, op, group)
}

// Epoch reports the observer node's certified membership view: the epoch
// counter (number of certified reconfigurations applied) and the sorted
// member groups of the current epoch.
func (c *Cluster) Epoch() (uint64, []int) {
	obs := c.inner.Cfg.Observer()
	return c.node(obs.Group, obs.Index).EpochInfo()
}

// node returns the protocol node at a position, nil outside Config.Groups.
func (c *Cluster) node(group, index int) *core.Node {
	n, _ := c.inner.Nodes[keys.NodeID{Group: group, Index: index}].(*core.Node)
	return n
}

// CrashNode kills a single node at virtual time `at`.
func (c *Cluster) CrashNode(at time.Duration, group, index int) {
	c.inner.ScheduleNodeCrash(at, keys.NodeID{Group: group, Index: index})
}

// RecoverNode revives a crashed node at virtual time `at`. The node comes
// back with its in-memory state wiped and immediately starts the
// checkpointed-rejoin protocol: it fetches a state checkpoint from a LAN
// peer, installs it, and catches up via the normal repair paths.
func (c *Cluster) RecoverNode(at time.Duration, group, index int) {
	c.inner.ScheduleNodeRecover(at, keys.NodeID{Group: group, Index: index})
}

// Counter reads one internal diagnostic counter by name, such as
// "state-transfers" or "net-dropped"; zero for unknown names. Useful to
// confirm that fault injection and recovery actually engaged during a run.
// The fields of internal/metrics.Counts declare every name and say what it
// counts.
func (c *Cluster) Counter(name string) int64 {
	return c.inner.Metrics.Counter(name)
}

// Transition is one step of a node's state machines: a group-table
// transition, a PBFT view installed or a local PBFT slot's phase.
type Transition = cluster.Transition

// WatchTransitions hands fn every transition each node reports, with the
// node's group and index. fn only reads: the run is the one it would be.
func (c *Cluster) WatchTransitions(fn func(group, index int, tr Transition)) {
	c.inner.OnTransition = func(id keys.NodeID, tr Transition) { fn(id.Group, id.Index, tr) }
}

// SetNodeBandwidth overrides one node's WAN bandwidth (bytes/second), the
// Fig 14 heterogeneous-bandwidth experiment. It panics ("simnet: unknown
// node Ng,i") for a position outside Config.Groups.
func (c *Cluster) SetNodeBandwidth(group, index int, bytesPerSec float64) {
	c.inner.Net.SetNodeBandwidth(keys.NodeID{Group: group, Index: index}, bytesPerSec)
}

// StateHash returns the deterministic state digest of one node; equal hashes
// across nodes certify agreement.
func (c *Cluster) StateHash(group, index int) [32]byte {
	return c.inner.StateHash(keys.NodeID{Group: group, Index: index})
}

// LedgerInfo describes one node's copy of the global hash-chained ledger.
type LedgerInfo struct {
	// Height is the number of sealed blocks.
	Height uint64
	// Head is the latest block hash; two nodes with equal heads hold
	// identical ledgers (and therefore executed identical prefixes).
	Head [32]byte
}

// Checkpoint writes one node's durable artifacts — the state snapshot and
// the hash-chained ledger — to the given writers, e.g. for restart or
// state transfer to a lagging peer.
func (c *Cluster) Checkpoint(group, index int, state, chain io.Writer) error {
	n := c.node(group, index)
	if n == nil {
		return fmt.Errorf("massbft: no node at group %d index %d", group, index)
	}
	if err := n.DB().Save(state); err != nil {
		return err
	}
	return n.Ledger().Save(chain)
}

// AgreementVerdict classifies end-of-run (dis)agreement across replicas.
type AgreementVerdict = forensics.Verdict

const (
	// AgreementConverged: every live node holds an identical ledger and
	// state digest.
	AgreementConverged = forensics.Converged
	// AgreementWedged: all live ledgers agree block-for-block on their
	// common prefix, but at least one node stopped short of the longest
	// chain — a liveness gap. Draining longer may heal it; a reproducible
	// wedge is a recovery-path bug.
	AgreementWedged = forensics.Wedged
	// AgreementForked: two live nodes sealed different blocks at the same
	// height — a safety violation. No amount of draining can heal a fork.
	AgreementForked = forensics.Forked
)

// AgreementReport is the classified outcome of an agreement check (see
// Cluster.AgreementReport): the verdict, the first divergent height, the
// conflicting blocks of a fork, the laggards of a wedge and the census of
// every node, crashed ones included. Its String renders it for logs.
type AgreementReport = forensics.Report

// NodeAgreement is one node's entry in an AgreementReport census.
type NodeAgreement = forensics.NodeStatus

// ForkBranch is one side of a fork: the block sealed at the first divergent
// height, the consensus entry it seals (Entry) and the nodes holding it.
type ForkBranch = forensics.Branch

// AgreementReport drains nothing and judges the cluster as it stands:
// per-node ledger prefix walks classify the run as converged, wedged
// (liveness gap: identical prefixes, some node behind), or forked (safety
// violation: different blocks at the same height, located by bisection).
// Call after Drain, or use DrainToAgreement for the common
// drain-until-converged loop. Each call also updates the
// "forked-detected"/"wedged-detected"/"agreement-first-div-height" counters
// (see Counter).
func (c *Cluster) AgreementReport() AgreementReport {
	return c.inner.AgreementReport(nil)
}

// DrainToAgreement repeatedly drains in `step` increments (default 500ms)
// until the live nodes converge, a fork is detected (forks never heal, so
// waiting is pointless), or `budget` of virtual time elapses; it returns the
// final classified report. This is the principled version of "drain a while
// and compare state hashes": a wedge that outlasts the budget reports
// which nodes are behind and from what height, instead of a bare mismatch.
func (c *Cluster) DrainToAgreement(step, budget time.Duration) AgreementReport {
	if step <= 0 {
		step = 500 * time.Millisecond
	}
	var rep AgreementReport
	for spent := time.Duration(0); ; {
		c.Drain(step)
		spent += step
		rep = c.AgreementReport()
		if rep.Verdict != AgreementWedged || spent+step > budget {
			return rep
		}
	}
}

// Ledger returns one node's ledger head; use it to assert that replicas
// sealed the same chain of executed entries.
func (c *Cluster) Ledger(group, index int) LedgerInfo {
	n := c.node(group, index)
	if n == nil {
		return LedgerInfo{}
	}
	l := n.Ledger()
	return LedgerInfo{Height: l.Height(), Head: l.Head()}
}

func (c *Cluster) result() Result {
	m := c.inner.Metrics
	pts := m.Series()
	series := make([]SeriesPoint, len(pts))
	for i, p := range pts {
		series[i] = SeriesPoint{Second: p.Second, Throughput: p.Throughput, AvgLatency: p.AvgLatency}
	}
	res := Result{
		Throughput:      m.Throughput(),
		Committed:       m.Committed(),
		Aborted:         m.Aborted(),
		AbortRate:       m.AbortRate(),
		Entries:         m.Entries(),
		AvgLatency:      m.AvgLatency(),
		P50Latency:      m.PercentileLatency(50),
		P99Latency:      m.PercentileLatency(99),
		WANBytesPerNode: float64(c.inner.Net.WANBytes(-1)) / float64(totalNodes(c.inner.Cfg.GroupSizes)),
		WANBytesTotal:   c.inner.Net.WANBytes(-1),
		Series:          series,
		ClientCommitted: m.ClientCommitted,
		ClientResubmits: m.ClientResubmitted,
		ClientGaveUp:    m.ClientGaveup,
	}
	if c.inner.Trace != nil {
		rep := trace.Analyze(c.inner.Trace.Spans(), c.inner.Cfg.Observer())
		tr := &TraceReport{
			Entries: len(rep.Entries),
			Spans:   c.inner.Trace.Len(),
			Dropped: c.inner.Trace.Dropped(),
			E2EAvg:  rep.E2EAvg,
		}
		if len(rep.Stages) > 0 {
			tr.Dominant = rep.Stages[0].Stage
		}
		for _, s := range rep.Stages {
			tr.Stages = append(tr.Stages, TraceStage{Stage: s.Stage, Total: s.Total, Avg: s.Avg, Share: s.Share})
		}
		res.Trace = tr
	}
	return res
}

func totalNodes(groups []int) int {
	n := 0
	for _, g := range groups {
		n += g
	}
	return n
}

// Result summarizes a run.
type Result struct {
	// Throughput is committed transactions per second over the measurement
	// window.
	Throughput float64
	// Committed / Aborted count transactions; AbortRate is the §VI-A
	// conflict-abort fraction.
	Committed, Aborted int64
	AbortRate          float64
	// Entries is the number of executed log entries.
	Entries int64
	// Latencies are end-to-end: proposal to execution.
	AvgLatency, P50Latency, P99Latency time.Duration
	// WAN traffic accounting (Fig 10).
	WANBytesPerNode float64
	WANBytesTotal   int64
	// Series is the per-second throughput/latency trace (Fig 15).
	Series []SeriesPoint
	// Trace is the critical-path summary of the traced run, with the
	// per-stage latency breakdown (Fig 11); nil when tracing is off
	// (Config.TracePath empty).
	Trace *TraceReport
	// Client-side outcome of a gateway-driven run (Config.GatewayClients):
	// requests that earned f+1 reply certificates, cross-group timeout
	// resubmissions, and abandoned requests. All zero when the gateway is
	// off.
	ClientCommitted, ClientResubmits, ClientGaveUp int64
}

// TraceReport summarizes the per-entry critical-path analysis of a traced
// run, computed from the vantage of the metrics observer node: each entry's
// end-to-end window is partitioned exactly among its pipeline stages, so the
// per-stage averages sum to the average end-to-end latency.
type TraceReport struct {
	// Entries is the number of entries whose full propose→execute path was
	// observed; Spans the total spans recorded cluster-wide; Dropped how many
	// spans the recorder's cap discarded (0 in any reasonably sized run).
	Entries int
	Spans   int
	Dropped int64
	// Dominant is the stage contributing the most critical-path time.
	Dominant string
	// E2EAvg is the average end-to-end (propose→execute) critical-path
	// window; the per-stage Avgs below sum to it.
	E2EAvg time.Duration
	// Stages is sorted by total critical-path contribution, largest first.
	Stages []TraceStage
}

// TraceStage is one pipeline stage's aggregate critical-path contribution.
type TraceStage struct {
	Stage string
	// Total is the stage's summed critical-path time across entries; Avg the
	// per-entry average (Total / entries); Share the fraction of all
	// critical-path time.
	Total, Avg time.Duration
	Share      float64
}

// SeriesPoint is one second of a run's trace.
type SeriesPoint struct {
	Second     int
	Throughput float64
	AvgLatency time.Duration
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("throughput=%.0f tps avg-latency=%v p50=%v entries=%d abort-rate=%.3f",
		r.Throughput, r.AvgLatency.Round(time.Millisecond), r.P50Latency.Round(time.Millisecond),
		r.Entries, r.AbortRate)
}
