// Package cluster wires protocol nodes onto the network emulator and runs
// timed experiments: it owns the cluster-wide configuration (group sizes,
// WAN/LAN characteristics, batching, the CPU cost model), the shared message
// envelope types, fault schedules (§VI-E's chunk-tampering followers as
// wire-level simnet Byzantine senders, node and group crashes), and metrics
// collection. Protocol logic itself lives in internal/core (MassBFT and the
// protocols derived from it by switching its replication/ordering modes).
package cluster

import (
	"errors"
	"fmt"
	"time"

	"massbft/internal/keys"
	"massbft/internal/simnet"
	"massbft/internal/workload"
)

// ReplMode selects the global log replication strategy (§IV).
type ReplMode int

// Replication strategies.
const (
	// ReplOneWay: only the group leader sends, one complete entry copy to
	// f+1 nodes of each receiver group (Baseline/GeoBFT with the GeoBFT
	// optimization, §II-A).
	ReplOneWay ReplMode = iota
	// ReplBijective: f1+f2+1 nodes each send a complete copy to distinct
	// receivers (§IV-A; the BR ablation of Fig 12).
	ReplBijective
	// ReplEncoded: encoded bijective replication with erasure-coded chunks
	// (§IV-B; EBR and MassBFT).
	ReplEncoded
)

// OrderMode selects how entries from different groups are interleaved (§V).
type OrderMode int

// Ordering strategies.
const (
	// OrderRound: round-based synchronous ordering (Baseline/GeoBFT/ISS).
	OrderRound OrderMode = iota
	// OrderAsync: asynchronous ordering by vector timestamps (MassBFT).
	OrderAsync
)

// Options selects the protocol variant a node runs. The named protocols of
// the paper's evaluation (Table II) are fixed combinations; see the Preset*
// functions.
type Options struct {
	Replication ReplMode
	Ordering    OrderMode
	// GlobalConsensus enables the Raft-style accept/commit phases. GeoBFT
	// turns it off (direct broadcast, no group fault tolerance).
	GlobalConsensus bool
	// Serial allows only one entry proposal in flight globally (Steward).
	Serial bool
	// EpochLength > 0 enables ISS-style epoch barriers between batches of
	// rounds.
	EpochLength time.Duration
	// OverlapVTS uses the overlapped (2-RTT) VTS assignment of §V-B; when
	// false the serial 3-RTT variant runs (the ablation of Fig 7a vs 7b).
	OverlapVTS bool
}

// Preset protocol option sets matching Table II.
func PresetMassBFT() Options {
	return Options{Replication: ReplEncoded, Ordering: OrderAsync, GlobalConsensus: true, OverlapVTS: true}
}

// PresetBaseline is the generic geo-consensus model of §II-A.
func PresetBaseline() Options {
	return Options{Replication: ReplOneWay, Ordering: OrderRound, GlobalConsensus: true}
}

// PresetGeoBFT broadcasts directly without global consensus.
func PresetGeoBFT() Options {
	return Options{Replication: ReplOneWay, Ordering: OrderRound, GlobalConsensus: false}
}

// PresetSteward allows only one group to propose at a time.
func PresetSteward() Options {
	return Options{Replication: ReplOneWay, Ordering: OrderRound, GlobalConsensus: true, Serial: true}
}

// PresetISS uses Steward-style hierarchical SB with epoch-based rotation.
func PresetISS(epoch time.Duration) Options {
	return Options{Replication: ReplOneWay, Ordering: OrderRound, GlobalConsensus: true, EpochLength: epoch}
}

// PresetBR is the Fig 12 bijective-only ablation.
func PresetBR() Options {
	return Options{Replication: ReplBijective, Ordering: OrderRound, GlobalConsensus: true}
}

// PresetEBR is the Fig 12 encoded-bijective ablation (still round-ordered).
func PresetEBR() Options {
	return Options{Replication: ReplEncoded, Ordering: OrderRound, GlobalConsensus: true}
}

// CostModel charges virtual CPU time for the operations the paper identifies
// as compute-bound (§VI-B): per-transaction signature verification during
// local consensus, erasure encode/rebuild, and deterministic execution.
type CostModel struct {
	// SigVerifyPerTxn is charged on every group node for every transaction
	// in a locally-proposed entry (the dominant local-consensus cost).
	SigVerifyPerTxn time.Duration
	// ExecPerTxn is charged at execution on every node.
	ExecPerTxn time.Duration
	// EncodePerByte / RebuildPerByte are charged when erasure-coding or
	// rebuilding an entry.
	EncodePerByte time.Duration
	// RebuildPerByte is the per-byte decode cost.
	RebuildPerByte time.Duration
	// MsgOverhead is charged per protocol message handled.
	MsgOverhead time.Duration
}

// DefaultCostModel approximates the paper's 8-core ecs.c6.2xlarge nodes.
func DefaultCostModel() CostModel {
	return CostModel{
		SigVerifyPerTxn: 12 * time.Microsecond,
		ExecPerTxn:      2 * time.Microsecond,
		EncodePerByte:   15 * time.Nanosecond,
		RebuildPerByte:  25 * time.Nanosecond,
		MsgOverhead:     3 * time.Microsecond,
	}
}

// GatewayConfig parameterizes the client gateway front end (package
// internal/gateway): authenticated request intake, adaptive batching, and
// signed reply emission. When Enabled, leaders cut proposals from their
// gateway queue instead of pulling from the synthetic workload generator.
type GatewayConfig struct {
	// Clients is the number of registered client identities (keyed by
	// GenerateClients(Clients, Seed)); defaults to SimClients.
	Clients int
	// SimClients > 0 makes the simulated cluster drive that many closed-loop
	// clients through the gateway (ClientHub).
	SimClients int
	// QueueLimit / RatePerClient / RateBurst map to gateway.Config; zeros
	// take the gateway defaults. The batcher's latency bound is BatchTimeout.
	QueueLimit    int
	RatePerClient float64
	RateBurst     int
}

// Enabled reports whether the proposers take the gateway intake path: some
// client is registered or simulated.
func (g GatewayConfig) Enabled() bool { return g.Clients > 0 || g.SimClients > 0 }

// Config describes one experiment run.
type Config struct {
	// GroupSizes[i] is the node count of group i (the paper's default is
	// three groups of seven).
	GroupSizes []int
	// Protocol options (see Preset*).
	Opts Options
	// Workload name: "ycsb-a", "ycsb-b", "smallbank", "tpcc".
	Workload string
	// Seed drives all randomness (keys, workload, jitter).
	Seed int64

	// Topology is the simulated network: every latency, LAN included, and
	// each group's WAN bandwidth. It must cover every group; New makes a nil
	// one the nationwide matrix (NationwideLatency) at the defaults.
	Topology *simnet.Topology

	// Batching: leaders cut an entry of up to MaxBatch transactions every
	// BatchTimeout (the paper fixes 20 ms) while fewer than PipelineDepth
	// of their entries are unexecuted.
	BatchTimeout  time.Duration
	MaxBatch      int
	PipelineDepth int
	// GroupRate[i], when non-zero, throttles group i's clients to that many
	// transactions per second (Fig 2 / Fig 12); zero means saturation.
	GroupRate []float64

	Cost CostModel

	// TrustAll skips real Ed25519 verification and charges the CPU model
	// instead (benchmarks); correctness tests keep it false.
	TrustAll bool

	// TraceEnabled arms the per-entry tracing subsystem (internal/trace): a
	// cluster-wide span recorder plus a passive simnet send probe. Tracing
	// is strictly observational — a traced run commits the same prefix and
	// state hashes as an untraced one.
	TraceEnabled bool

	// RunFor is the virtual duration of the experiment; Warmup trims the
	// measurement window on both sides.
	RunFor time.Duration
	Warmup time.Duration

	// TakeoverTimeout is how long without stream records before another
	// group takes over a crashed group's clock (§V-C); zero disables. It is
	// also the base period of the Lemma V.1 entry-fetch retry backoff.
	TakeoverTimeout time.Duration

	// SuspectTimeout is how long a group's meta leader tolerates silence from
	// another group before emitting a certified GroupSuspect attestation into
	// its own stream. The designated successor certifies GroupDead (and only
	// then takes over / skips rounds) after a Byzantine quorum of groups hold
	// standing suspicions. Defaults to 4x TakeoverTimeout; only meaningful
	// when TakeoverTimeout is set.
	SuspectTimeout time.Duration

	// RepairTimeout is how long a partially-filled chunk bucket may stall
	// before the receiver NACKs its missing chunk indexes to a LAN peer and
	// an alternate sender-group node; zero disables chunk repair.
	RepairTimeout time.Duration

	// RejoinTimeout is the backoff base of a recovering node's state
	// transfer: it asks the next peer after RejoinTimeout, then after 2x,
	// 4x, ... up to 16x, until a checkpoint installs; defaults to
	// 10*BatchTimeout.
	RejoinTimeout time.Duration

	// Fault injection (deterministic, seeded from Seed): per-message WAN/LAN
	// drop and WAN duplicate probabilities plus extra latency jitter applied
	// by the simnet fault layer. All zero disables the layer entirely, keeping
	// fault-free runs bit-identical to earlier seeds.
	WANDropRate float64
	WANDupRate  float64
	LANDropRate float64
	FaultJitter float64

	// ViewChangeTimeout enables local PBFT view changes: replicas vote to
	// replace a leader that stalls for this long. Zero disables (benchmark
	// steady state).
	ViewChangeTimeout time.Duration

	// WorkloadFactory, when set, overrides Workload with an
	// application-defined generator+executor (built per group).
	WorkloadFactory func(group int, seed int64) workload.Workload

	// Gateway configures the client-serving front end; zero value disables.
	Gateway GatewayConfig

	// StandbyGroups marks the highest-numbered groups of GroupSizes as
	// provisioned-but-inactive: their keys, transport endpoints, and stream
	// slots exist from genesis, but they hold no state, propose nothing, and
	// count in no quorum until a certified RecEpoch join admits them
	// (DESIGN.md §11). Zero keeps every group active from the start; more
	// needs the MassBFT preset (Validate).
	StandbyGroups int

	// Draining, set by Cluster.Drain, stops client load: leaders propose
	// only empty heartbeat entries, which keep the group clocks advancing so
	// every already-proposed entry reaches execution on every node.
	Draining bool
}

// StandbyAtGenesis reports whether group g starts as a provisioned standby
// group (the StandbyGroups highest-numbered groups of GroupSizes).
func (c *Config) StandbyAtGenesis(g int) bool {
	return c.StandbyGroups > 0 && g >= len(c.GroupSizes)-c.StandbyGroups
}

// Validate checks the group layout, the proposer's bounds and what
// StandbyGroups requires, for both fabrics: New calls it for a simulated
// cluster and massbft.Topology for a process deployment, each prefixing the
// error with where the layout came from. Dynamic membership rides on the
// failover machinery (standby groups are fenced exactly like certified-dead
// ones until their join) and on the overlapped VTS ordering of the MassBFT
// preset: a joined group's orderer head jumps to its certified boundary
// (DESIGN.md §11). The round-ordered presets model static-membership
// protocols, and the serial VTS variant is an ablation; neither admits a
// standby group.
func (c *Config) Validate() error {
	if len(c.GroupSizes) == 0 {
		return errors.New("no groups configured")
	}
	for g, n := range c.GroupSizes {
		if n < 1 {
			return fmt.Errorf("group %d has invalid size %d", g, n)
		}
	}
	// Zero means the default (withDefaults); a negative bound would size the
	// process's memos (NewProcess) below nothing and let no entry propose.
	if c.MaxBatch < 0 {
		return fmt.Errorf("invalid MaxBatch %d", c.MaxBatch)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("invalid PipelineDepth %d", c.PipelineDepth)
	}
	// withDefaults replaces zeros only: a negative timeout would re-arm a
	// timer that fires at once, forever, and a negative rate would never
	// admit a transaction.
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"BatchTimeout", c.BatchTimeout}, {"RunFor", c.RunFor}, {"Warmup", c.Warmup},
		{"TakeoverTimeout", c.TakeoverTimeout}, {"SuspectTimeout", c.SuspectTimeout},
		{"RepairTimeout", c.RepairTimeout}, {"RejoinTimeout", c.RejoinTimeout},
		{"ViewChangeTimeout", c.ViewChangeTimeout}, {"EpochLength", c.Opts.EpochLength},
		{"SigVerifyPerTxn", c.Cost.SigVerifyPerTxn}, {"ExecPerTxn", c.Cost.ExecPerTxn},
		{"EncodePerByte", c.Cost.EncodePerByte}, {"RebuildPerByte", c.Cost.RebuildPerByte},
		{"MsgOverhead", c.Cost.MsgOverhead},
	} {
		if d.v < 0 {
			return fmt.Errorf("negative %s %v", d.name, d.v)
		}
	}
	for g, r := range c.GroupRate {
		if !(r >= 0) { // NaN as well
			return fmt.Errorf("invalid GroupRate %v for group %d", r, g)
		}
	}
	if c.Topology != nil && c.Topology.Regions() < len(c.GroupSizes) {
		return fmt.Errorf("a topology of %d regions for %d groups", c.Topology.Regions(), len(c.GroupSizes))
	}
	if c.StandbyGroups > 0 {
		if c.StandbyGroups > len(c.GroupSizes)-2 {
			return fmt.Errorf("%d standby groups leave fewer than two active groups", c.StandbyGroups)
		}
		if c.TakeoverTimeout <= 0 {
			return errors.New("standby groups require a takeover timeout > 0")
		}
		if c.Opts != PresetMassBFT() {
			return errors.New("standby groups run on MassBFT only")
		}
	}
	return nil
}

// Observer is the node whose executions feed the metrics collector: node 0
// of the highest-numbered group (which Fig 15's group-0 crash leaves alive).
func (c *Config) Observer() keys.NodeID {
	return keys.NodeID{Group: len(c.GroupSizes) - 1}
}

// WithDefaults returns the config with every unset knob at its default.
// Cluster.New applies it automatically; exported for multi-process wiring
// (massbft.StartNode), which builds a one-node Process without a Cluster.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "ycsb-a"
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = 20 * time.Millisecond
	}
	if c.RejoinTimeout == 0 {
		c.RejoinTimeout = 10 * c.BatchTimeout
	}
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 4 * c.TakeoverTimeout
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 400
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 16
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.RunFor == 0 {
		c.RunFor = 10 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Gateway.Clients == 0 {
		c.Gateway.Clients = c.Gateway.SimClients
	}
	return c
}

// NationwideLatency is the one-way latency matrix of the paper's nationwide
// cluster (Zhangjiakou, Chengdu, Hangzhou, then Shenzhen, Beijing, Shanghai,
// Guangzhou for the Fig 13b scale-out), with RTTs in the paper's 26.7-43.4 ms
// range.
func NationwideLatency(i, j int) time.Duration {
	if i == j {
		return 0
	}
	// Symmetric one-way latency matrix in milliseconds*10 (RTT = 2x).
	m := [7][7]int{
		{0, 217, 155, 180, 60, 140, 175},
		{217, 0, 134, 120, 200, 150, 125},
		{155, 134, 0, 90, 145, 35, 85},
		{180, 120, 90, 0, 170, 80, 25},
		{60, 200, 145, 170, 0, 120, 165},
		{140, 150, 35, 80, 120, 0, 75},
		{175, 125, 85, 25, 165, 75, 0},
	}
	if i < 7 && j < 7 {
		return time.Duration(m[i][j]) * time.Millisecond / 10
	}
	return 15 * time.Millisecond
}

// WorldwideLatency is the worldwide cluster (Hong Kong, London, Silicon
// Valley): RTTs 156-206 ms.
func WorldwideLatency(i, j int) time.Duration {
	if i == j {
		return 0
	}
	m := [3][3]int{
		{0, 980, 780},
		{980, 0, 1030},
		{780, 1030, 0},
	}
	if i < 3 && j < 3 {
		return time.Duration(m[i][j]) * time.Millisecond / 10
	}
	return 90 * time.Millisecond
}
