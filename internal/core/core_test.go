package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
)

// smallCfg is a 3-groups-of-4 cluster with fast virtual timings so tests
// finish quickly. Ed25519 verification uses the modeled-cost mode by
// default; the security-critical tests (end-to-end, Byzantine tampering,
// crash takeover, leader crash) flip RealCrypto on explicitly.
func smallCfg() cluster.Config {
	return cluster.Config{
		GroupSizes:    []int{4, 4, 4},
		Opts:          cluster.PresetMassBFT(),
		Workload:      "ycsb-a",
		Seed:          1,
		MaxBatch:      20,
		BatchTimeout:  10 * time.Millisecond,
		PipelineDepth: 8,
		RunFor:        3 * time.Second,
		Warmup:        500 * time.Millisecond,
		TrustAll:      true,
	}
}

// realCryptoCfg is smallCfg with full Ed25519 verification.
func realCryptoCfg() cluster.Config {
	cfg := smallCfg()
	cfg.TrustAll = false
	return cfg
}

func runCluster(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	// Drain in-flight entries so state hashes are comparable across nodes.
	c.Drain(2 * time.Second)
	return c
}

// assertConsistency checks every live node converged to the same state hash.
func assertConsistency(t *testing.T, c *cluster.Cluster, skipGroups map[int]bool) {
	t.Helper()
	var ref [32]byte
	var refSet bool
	for g, n := range c.Cfg.GroupSizes {
		if skipGroups[g] {
			continue
		}
		for j := 0; j < n; j++ {
			h := c.StateHash(keys.NodeID{Group: g, Index: j})
			if !refSet {
				ref, refSet = h, true
				continue
			}
			if h != ref {
				t.Fatalf("node N%d,%d state diverges", g, j)
			}
		}
	}
}

// census hashes every node's end state — ledger height and head, state hash,
// certified membership view (EpochInfo) and executed seqs per group — in
// (group, index) order, as a short hex digest. It pins a schedule's outcome
// across refactors: two runs of the same code agreeing says nothing about a
// change that moves the outcome deterministically.
func census(c *cluster.Cluster) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for g, size := range c.Cfg.GroupSizes {
		for j := 0; j < size; j++ {
			id := keys.NodeID{Group: g, Index: j}
			n := c.Nodes[id].(*Node)
			u64(n.Ledger().Height())
			head := n.Ledger().Head()
			h.Write(head[:])
			state := c.StateHash(id)
			h.Write(state[:])
			epoch, members := n.EpochInfo()
			u64(epoch)
			u64(uint64(len(members)))
			for _, m := range members {
				u64(uint64(m))
			}
			for _, s := range n.ExecutedSeqs() {
				u64(s)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// assertCensus fails unless the cluster's census equals want.
func assertCensus(t *testing.T, c *cluster.Cluster, want string) {
	t.Helper()
	if got := census(c); got != want {
		t.Fatalf("census %s, want %s: %s", got, want, c.Metrics.Summary())
	}
}

func TestMassBFTEndToEnd(t *testing.T) {
	t.Parallel()
	c := runCluster(t, realCryptoCfg())
	m := c.Metrics
	if m.Committed() == 0 {
		t.Fatalf("no transactions committed: %s", m.Summary())
	}
	if m.AvgLatency() == 0 {
		t.Fatal("no latency recorded")
	}
	if c.Pairs[0][0].Signed() == 0 {
		t.Fatal("a real-crypto run signed nothing")
	}
	assertConsistency(t, c, nil)
}

// TestModelledCryptoSignsNothing: a trust-all cluster checks no node
// signature beyond its length, so its key pairs produce none — while a
// registry that does verify turns their tags down.
func TestModelledCryptoSignsNothing(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("no transactions committed: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
	for _, group := range c.Pairs {
		for _, kp := range group {
			if n := kp.Signed(); n != 0 {
				t.Fatalf("%v produced %d Ed25519 signatures in a trust-all run", kp.ID, n)
			}
		}
	}
	kp, msg := c.Pairs[1][2], []byte("a pre-prepare")
	tag := kp.Sign(msg)
	_, verifying, err := keys.GenerateCluster(cfg.GroupSizes, cfg.Seed) // the same public keys, checked for real
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reg.Verify(kp.ID, msg, tag) || verifying.Verify(kp.ID, msg, tag) {
		t.Fatal("a modelled tag must pass the trust-all registry and fail a verifying one")
	}
}

func TestMassBFTAllNodesExecuteSameOrder(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	// Determinism: two identical runs produce identical metrics and states.
	a := runCluster(t, smallCfg())
	b := runCluster(t, smallCfg())
	if a.Metrics.Committed() != b.Metrics.Committed() {
		t.Fatalf("runs diverge: %d vs %d committed", a.Metrics.Committed(), b.Metrics.Committed())
	}
	ha := a.StateHash(keys.NodeID{Group: 0, Index: 0})
	hb := b.StateHash(keys.NodeID{Group: 0, Index: 0})
	if ha != hb {
		t.Fatal("same seed produced different final states")
	}
}

// TestParallelClustersShareNoMemo: the root package runs simulated clusters
// in parallel, so what the nodes of one share — the erasure memos and the
// value memo — is made per cluster, never per process. Two clusters run on
// two goroutines end where a serial run after them ends; scripts/check.sh
// race runs this under -race, where a memo shared across clusters is a data
// race. The parallel pair runs first: after a serial run, a shared memo
// would already hold every value and the pair would only read it.
func TestParallelClustersShareNoMemo(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RunFor = time.Second
	run := func() (string, error) {
		c, err := cluster.New(cfg, NewNode)
		if err != nil {
			return "", err
		}
		c.Run()
		c.Drain(2 * time.Second)
		if c.Metrics.Committed() == 0 {
			return "", fmt.Errorf("no transactions committed: %s", c.Metrics.Summary())
		}
		return census(c), nil
	}
	var got [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Errorf("cluster %d of two run in parallel: census %s (%v), serial run %s", i, got[i], errs[i], want)
		}
	}
}

func TestBaselineEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Opts = cluster.PresetBaseline()
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("baseline committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestGeoBFTEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Opts = cluster.PresetGeoBFT()
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("geobft committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestStewardEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Opts = cluster.PresetSteward()
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("steward committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestISSEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.Opts = cluster.PresetISS(100 * time.Millisecond)
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("iss committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestBRAndEBREndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	for _, opts := range []cluster.Options{cluster.PresetBR(), cluster.PresetEBR()} {
		cfg := smallCfg()
		cfg.Opts = opts
		c := runCluster(t, cfg)
		if c.Metrics.Committed() == 0 {
			t.Fatalf("opts %+v committed nothing: %s", opts, c.Metrics.Summary())
		}
		assertConsistency(t, c, nil)
	}
}

func TestMassBFTHeterogeneousGroupSizes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.GroupSizes = []int{4, 7, 7} // the Fig 12 shape
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("heterogeneous cluster committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestSerialVTSMode(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	// Fig 7a ablation: serial (3-RTT) VTS assignment must still commit,
	// order, and agree — just slower.
	cfg := smallCfg()
	cfg.Opts.OverlapVTS = false
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("serial VTS committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestWorldwideLatencyMatrix(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	cfg := smallCfg()
	cfg.WANLatency = cluster.WorldwideLatency
	cfg.RunFor = 4 * time.Second
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("worldwide cluster committed nothing: %s", c.Metrics.Summary())
	}
	// End-to-end latency must reflect the higher RTTs (>= one worldwide
	// one-way latency).
	if c.Metrics.AvgLatency() < 78*time.Millisecond {
		t.Fatalf("worldwide latency %v implausibly low", c.Metrics.AvgLatency())
	}
	assertConsistency(t, c, nil)
}

func TestSingleGroupCluster(t *testing.T) {
	t.Parallel()
	// Degenerate deployment: one group, no WAN replication at all. The
	// protocol must still batch, locally certify, order, and execute.
	cfg := smallCfg()
	cfg.GroupSizes = []int{4}
	c := runCluster(t, cfg)
	if c.Metrics.Committed() == 0 {
		t.Fatalf("single group committed nothing: %s", c.Metrics.Summary())
	}
	assertConsistency(t, c, nil)
}

func TestRateLimitedGroups(t *testing.T) {
	t.Parallel()
	// Offered-load throttling: committed throughput must track the offer,
	// not saturation.
	cfg := smallCfg()
	cfg.MaxBatch = 50
	cfg.GroupRate = []float64{500, 500, 500}
	c := runCluster(t, cfg)
	tput := c.Metrics.Throughput()
	if tput < 1200 || tput > 1600 {
		t.Fatalf("throughput %.0f, want ~1500 (offered)", tput)
	}
}
