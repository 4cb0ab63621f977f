package massbft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"massbft/internal/ledger"
	"massbft/internal/simnet"
	"massbft/internal/statedb"
)

func quickCfg() Config {
	return Config{
		Groups:       []int{4, 4, 4},
		Protocol:     ProtocolMassBFT,
		Workload:     "ycsb-a",
		Seed:         1,
		MaxBatch:     20,
		BatchTimeout: 10 * time.Millisecond,
		Warmup:       500 * time.Millisecond,
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewCluster(Config{Groups: []int{4, 0}}); err == nil {
		t.Fatal("zero-size group accepted")
	}
	if _, err := NewCluster(Config{Groups: []int{4}, Protocol: "nope"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := NewCluster(Config{Groups: []int{4}, Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestLayoutValidationBothFabrics: the group-layout, proposer-bound, timeout
// and StandbyGroups rules are one cluster.Config.Validate, so the simulator's NewCluster and the
// process deployment's Topology reject the same layouts with the same words.
// withDefaults replaces zeros only, so a negative timeout or rate would reach
// the nodes (a negative BatchTimeout re-arms its timer at the instant it
// fires, and Run never returns): the knobs rows.
// The rules about addresses have no simulated counterpart (addrs rows): there
// LoadTopology's validate, StartNode and DialClients say the same words.
func TestLayoutValidationBothFabrics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		groups   []int
		standby  int
		takeover time.Duration
		protocol Protocol
		maxBatch int
		depth    int
		knobs    func(*Config, *Topology) // sets one knob alike on both
		addrs    func(*Topology)          // edits a full address list; the row is Topology-only
		ok       bool
	}{
		{name: "no groups"},
		{name: "zero-size group", groups: []int{4, 0}},
		{name: "negative MaxBatch", groups: []int{4, 4}, maxBatch: -5},
		{name: "negative PipelineDepth", groups: []int{4, 4}, depth: -1},
		{name: "standby leaves one active group", groups: []int{4, 4}, standby: 1, takeover: time.Second},
		{name: "standby without takeover timeout", groups: []int{4, 4, 4}, standby: 1},
		{name: "standby under geobft", groups: []int{4, 4, 4}, standby: 1, takeover: time.Second, protocol: ProtocolGeoBFT},
		{name: "two active groups and a standby", groups: []int{4, 4, 4}, standby: 1, takeover: time.Second, ok: true},
		{name: "negative batch timeout", groups: []int{4, 4},
			knobs: func(c *Config, tp *Topology) { c.BatchTimeout, tp.BatchTimeoutMS = -20*time.Millisecond, -20 }},
		{name: "negative view-change timeout", groups: []int{4, 4},
			knobs: func(c *Config, tp *Topology) { c.ViewChangeTimeout, tp.ViewChangeTimeoutMS = -time.Second, -1000 }},
		{name: "negative takeover timeout", groups: []int{4, 4}, takeover: -time.Second},
		{name: "negative suspect timeout", groups: []int{4, 4}, takeover: time.Second,
			knobs: func(c *Config, tp *Topology) { c.SuspectTimeout, tp.SuspectTimeoutMS = -time.Second, -1000 }},
		{name: "negative repair timeout", groups: []int{4, 4},
			knobs: func(c *Config, tp *Topology) { c.RepairTimeout, tp.RepairTimeoutMS = -time.Millisecond, -1 }},
		{name: "negative rejoin timeout", groups: []int{4, 4},
			knobs: func(c *Config, tp *Topology) { c.RejoinTimeout, tp.RejoinTimeoutMS = -time.Second, -1000 }},
		{name: "negative group rate", groups: []int{4, 4},
			knobs: func(c *Config, tp *Topology) { c.GroupRate, tp.GroupRate = []float64{100, -1}, []float64{100, -1} }},
		{name: "every timeout and rate positive", groups: []int{4, 4}, takeover: time.Second, ok: true,
			knobs: func(c *Config, tp *Topology) {
				c.BatchTimeout, c.ViewChangeTimeout, c.SuspectTimeout = 20*time.Millisecond, time.Second, time.Second
				c.RepairTimeout, c.RejoinTimeout, c.GroupRate = time.Millisecond, time.Second, []float64{100, 0}
				tp.BatchTimeoutMS, tp.ViewChangeTimeoutMS, tp.SuspectTimeoutMS = 20, 1000, 1000
				tp.RepairTimeoutMS, tp.RejoinTimeoutMS, tp.GroupRate = 1, 1000, []float64{100, 0}
			}},
		{name: "gateway addresses and clients", groups: []int{2, 2}, ok: true,
			addrs: func(tp *Topology) { tp.Clients, tp.Nodes[0].Gateway = 4, "h:9" }},
		{name: "gateway address without clients", groups: []int{2, 2},
			addrs: func(tp *Topology) { tp.Nodes[0].Gateway = "h:9" }},
		{name: "one address as addr and gateway", groups: []int{2, 2},
			addrs: func(tp *Topology) { tp.Clients, tp.Nodes[3].Gateway = 4, tp.Nodes[0].Addr }},
	} {
		cfg := Config{Groups: tc.groups, StandbyGroups: tc.standby,
			TakeoverTimeout: tc.takeover, Protocol: tc.protocol, MaxBatch: tc.maxBatch, PipelineDepth: tc.depth}
		topo := &Topology{Groups: tc.groups, StandbyGroups: tc.standby,
			TakeoverTimeoutMS: int(tc.takeover / time.Millisecond), Protocol: tc.protocol,
			MaxBatch: tc.maxBatch, PipelineDepth: tc.depth}
		if tc.knobs != nil {
			tc.knobs(&cfg, topo)
		}
		_, simErr := NewCluster(cfg)
		_, topoErr := topo.clusterConfig()
		if tc.addrs != nil {
			for g, size := range tc.groups {
				for i := 0; i < size; i++ {
					topo.Nodes = append(topo.Nodes, NodeAddr{Group: g, Index: i, Addr: fmt.Sprintf("h:%d", len(topo.Nodes))})
				}
			}
			tc.addrs(topo)
			topoErr = topo.validate()
			if !tc.ok && topoErr != nil {
				_, startErr := StartNode(NodeConfig{Topology: topo})
				_, dialErr := DialClients(ClientPoolConfig{Topology: topo})
				if startErr == nil || dialErr == nil || startErr.Error() != dialErr.Error() {
					t.Errorf("%s: StartNode says %q, DialClients %q", tc.name, startErr, dialErr)
				}
				simErr = startErr // the simulator has no addresses to get wrong
			}
		}
		if tc.ok {
			if simErr != nil || topoErr != nil {
				t.Errorf("%s: rejected: NewCluster %v, Topology %v", tc.name, simErr, topoErr)
			}
			continue
		}
		if simErr == nil || topoErr == nil {
			t.Errorf("%s: accepted: NewCluster %v, Topology %v", tc.name, simErr, topoErr)
		} else if simErr.Error() != "massbft: "+topoErr.Error() {
			t.Errorf("%s: NewCluster says %q, Topology %q", tc.name, simErr, topoErr)
		}
	}

	// A topology file is outside input: the knob reaches Validate from JSON.
	path := filepath.Join(t.TempDir(), "topology.json")
	file := `{"groups": [1, 1], "nodes": [{"group": 0, "index": 0, "addr": "h:0"}, {"group": 1, "index": 0, "addr": "h:1"}], "batch_timeout_ms": -20}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTopology(path); err == nil || !strings.Contains(err.Error(), "negative BatchTimeout") {
		t.Errorf("LoadTopology of a negative batch_timeout_ms says %v", err)
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(3 * time.Second)
	if res.Throughput == 0 || res.Committed == 0 {
		t.Fatalf("no progress: %v", res)
	}
	if res.AvgLatency <= 0 || res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Fatalf("latency stats inconsistent: %v", res)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	// Agreement: after draining in-flight entries, all nodes share the
	// state hash.
	c.Drain(2 * time.Second)
	ref := c.StateHash(0, 0)
	for g := 0; g < 3; g++ {
		for j := 0; j < 4; j++ {
			if c.StateHash(g, j) != ref {
				t.Fatalf("node %d,%d diverged", g, j)
			}
		}
	}
}

func TestAllProtocolsThroughPublicAPI(t *testing.T) {
	t.Parallel()
	for _, p := range Protocols() {
		cfg := quickCfg()
		cfg.Protocol = p
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		res := c.Run(3 * time.Second)
		if res.Committed == 0 {
			t.Fatalf("%s committed nothing: %v", p, res)
		}
	}
}

func TestIncrementalRun(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r1 := c.Run(2 * time.Second)
	r2 := c.Run(2 * time.Second)
	if r2.Committed <= r1.Committed {
		t.Fatalf("second Run did not advance: %d then %d", r1.Committed, r2.Committed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	run := func() Result {
		c, err := NewCluster(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(2 * time.Second)
	}
	a, b := run(), run()
	if a.Committed != b.Committed || a.AvgLatency != b.AvgLatency {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

// counterWorkload is a minimal CustomWorkload: every transaction increments
// one of a few named counters.
type counterWorkload struct{ counters int }

func (w *counterWorkload) Name() string { return "counters" }
func (w *counterWorkload) Load(put func(string, []byte)) {
	for i := 0; i < w.counters; i++ {
		put(fmt.Sprintf("ctr:%d", i), make([]byte, 8))
	}
}
func (w *counterWorkload) Next(group int, client uint64) []byte {
	p := make([]byte, 8)
	binary.BigEndian.PutUint64(p, client%uint64(w.counters))
	return p
}
func (w *counterWorkload) Execute(s Snapshot, payload []byte) ([]string, map[string][]byte, bool, error) {
	if len(payload) != 8 {
		return nil, nil, false, fmt.Errorf("bad payload")
	}
	key := fmt.Sprintf("ctr:%d", binary.BigEndian.Uint64(payload))
	cur, _ := s.Get(key)
	var v uint64
	if len(cur) == 8 {
		v = binary.BigEndian.Uint64(cur)
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, v+1)
	return []string{key}, map[string][]byte{key: out}, false, nil
}

func TestCustomWorkload(t *testing.T) {
	t.Parallel()
	cfg := quickCfg()
	cfg.Workload = ""
	cfg.Custom = &counterWorkload{counters: 64}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(3 * time.Second)
	if res.Committed == 0 {
		t.Fatalf("custom workload committed nothing: %v", res)
	}
	// RMW on shared counters conflicts within batches: some aborts expected,
	// and all nodes agree regardless.
	c.Drain(2 * time.Second)
	ref := c.StateHash(0, 0)
	if c.StateHash(2, 3) != ref {
		t.Fatal("custom workload states diverged")
	}
}

func TestFaultInjectionThroughPublicAPI(t *testing.T) {
	t.Parallel()
	cfg := quickCfg()
	cfg.TakeoverTimeout = 300 * time.Millisecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CrashGroup(1500*time.Millisecond, 0)
	res := c.Run(4 * time.Second)
	late := 0.0
	for _, p := range res.Series {
		if p.Second >= 3 {
			late += p.Throughput
		}
	}
	if late == 0 {
		t.Fatalf("no recovery after group crash: %v", res)
	}
}

func TestLatencyModels(t *testing.T) {
	if Nationwide(0, 1) == 0 || Worldwide(0, 1) == 0 {
		t.Fatal("latency presets returned zero between distinct groups")
	}
	if Nationwide(2, 2) != 0 || Worldwide(1, 1) != 0 {
		t.Fatal("self-latency should be zero")
	}
	if Worldwide(0, 1) <= Nationwide(0, 1) {
		t.Fatal("worldwide latency should exceed nationwide")
	}
	// NewCluster materializes a model into the simulator's one Topology:
	// exact on every ordered pair, past the 7×7 nationwide table too.
	const groups = 9
	asym := func(i, j int) time.Duration { return time.Duration(10*i+j+1) * time.Millisecond }
	for name, model := range map[string]LatencyModel{"nationwide": Nationwide, "worldwide": Worldwide, "asymmetric": asym} {
		topo := clusterTopology(t, Config{Groups: make([]int, groups), Latency: model})
		for i := 0; i < groups; i++ {
			for j := 0; j < groups; j++ {
				want := model(i, j)
				if i == j {
					want = simnet.DefaultLANDelay
				}
				if got := topo.Latency(i, j); got != want {
					t.Fatalf("%s: latency(%d,%d) = %v, want %v", name, i, j, got, want)
				}
			}
		}
	}
	if got := clusterTopology(t, Config{Groups: make([]int, groups)}).Latency(7, 8); got != 15*time.Millisecond {
		t.Fatalf("default model past the nationwide table: %v, want 15ms", got)
	}
	// Per-group WAN bandwidth: Globe cycles its tiers unless WANBandwidth
	// pins every group; the named models default to the paper's 20 Mbps.
	for _, tc := range []struct {
		cfg  Config
		want []float64
	}{
		{Config{Globe: true}, []float64{1e9 / 8, 100e6 / 8, 20e6 / 8, 1e9 / 8}},
		{Config{Globe: true, WANBandwidth: 40e6 / 8}, []float64{40e6 / 8, 40e6 / 8, 40e6 / 8, 40e6 / 8}},
		{Config{}, []float64{20e6 / 8, 20e6 / 8, 20e6 / 8, 20e6 / 8}},
		{Config{WANBandwidth: 40e6 / 8}, []float64{40e6 / 8, 40e6 / 8, 40e6 / 8, 40e6 / 8}},
	} {
		tc.cfg.Groups = make([]int, len(tc.want))
		topo := clusterTopology(t, tc.cfg)
		for g, want := range tc.want {
			if got := topo.GroupBandwidth(g); got != want {
				t.Fatalf("globe=%v WANBandwidth=%v: group %d at %v B/s, want %v",
					tc.cfg.Globe, tc.cfg.WANBandwidth, g, got, want)
			}
		}
	}
}

// clusterTopology returns the topology NewCluster builds for cfg, every
// group of one node.
func clusterTopology(t *testing.T, cfg Config) *simnet.Topology {
	t.Helper()
	for g := range cfg.Groups {
		cfg.Groups[g] = 1
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.inner.Cfg.Topology
}

func TestLedgerAgreement(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second)
	c.Drain(2 * time.Second)
	ref := c.Ledger(0, 0)
	if ref.Height == 0 {
		t.Fatal("empty ledger after run")
	}
	for g := 0; g < 3; g++ {
		for j := 0; j < 4; j++ {
			li := c.Ledger(g, j)
			if li.Height != ref.Height || li.Head != ref.Head {
				t.Fatalf("node %d,%d ledger (h=%d %x) != ref (h=%d %x)",
					g, j, li.Height, li.Head[:4], ref.Height, ref.Head[:4])
			}
		}
	}
}

func TestCheckpoint(t *testing.T) {
	t.Parallel()
	c, err := NewCluster(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Second)
	c.Drain(1 * time.Second)
	var state, chain bytes.Buffer
	if err := c.Checkpoint(0, 0, &state, &chain); err != nil {
		t.Fatal(err)
	}
	if state.Len() == 0 || chain.Len() == 0 {
		t.Fatal("empty checkpoint artifacts")
	}
	db, err := statedb.Load(&state)
	if err != nil {
		t.Fatal(err)
	}
	if db.Hash() != c.StateHash(0, 0) {
		t.Fatal("restored state differs")
	}
	l, err := ledger.Load(&chain)
	if err != nil {
		t.Fatal(err)
	}
	li := c.Ledger(0, 0)
	if l.Height() != li.Height || l.Head() != ([32]byte)(li.Head) {
		t.Fatal("restored ledger differs")
	}
}
