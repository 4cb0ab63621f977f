package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"massbft"
	"massbft/internal/ledger"
	"massbft/internal/types"
)

// The test binary doubles as the benchmark binary: the smoke test spawns
// workload children through os.Executable, which here is the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestFoldBooksSamplesToInnermostRepoFrame(t *testing.T) {
	samples := []stackSample{
		// A runtime leaf lands on the layer that called into the runtime.
		{[]string{"runtime.mapassign_faststr", "massbft/internal/aria.(*Engine).ExecuteBatch",
			"massbft/internal/core.(*Node).execute", "massbft/internal/simnet.(*Network).Run"}, 30},
		// A crypto leaf lands on its caller, not on the layers above it.
		{[]string{"crypto/sha256.block", "crypto/sha256.Sum256", "massbft/internal/merkle.NewTree",
			"massbft/internal/replication.Encode", "massbft/internal/core.(*Node).replicate"}, 20},
		{[]string{"crypto/ed25519.verify", "crypto/ed25519.Verify", "massbft/internal/keys.(*Registry).Verify",
			"massbft/internal/pbft.(*Instance).onPrepare"}, 10},
		// GC: a background worker, and an assist on a mutator's stack.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 15},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"massbft/internal/types.DecodeEntry"}, 5},
		// Nested packages fold to their top-level layer; the root package is "massbft".
		{[]string{"syscall.write", "net.(*conn).Write", "massbft/internal/transport/tcp.(*supervisor).serve"}, 8},
		{[]string{"massbft.(*Client).Submit", "main.runTCP.func1"}, 7},
		// No repository frame at all.
		{[]string{"runtime.futex", "runtime.schedule"}, 5},
	}
	got := foldShares(samples)
	want := map[string]float64{
		"aria": 0.30, "merkle": 0.20, "keys": 0.10, "runtime.gc": 0.20,
		"transport": 0.08, "massbft": 0.07, "other": 0.05,
	}
	var sum float64
	for _, l := range layers {
		share, ok := got[l]
		if !ok {
			t.Errorf("layer %s missing from the fold", l)
		}
		if math.Abs(share-want[l]) > 1e-9 {
			t.Errorf("layer %s: share %.3f, want %.3f", l, share, want[l])
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != len(layers) {
		t.Errorf("fold produced %d layers, want %d", len(got), len(layers))
	}
	for l, s := range foldShares(nil) {
		if s != 0 {
			t.Errorf("empty profile: layer %s has share %v", l, s)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for began := time.Now(); time.Since(began) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeCPUProfileRecoversStacks(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total float64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.value
				break
			}
		}
	}
	if total <= 0 || spin/total < 0.5 {
		t.Fatalf("spin function holds %.0f of %.0f profiled ns over %d samples", spin, total, len(samples))
	}
	if _, err := decodeCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestPercentileNearestRankAndTailRule(t *testing.T) {
	five := []float64{1, 2, 3, 4, 5}
	if got := percentile(five, 50); got != 3 {
		t.Errorf("p50 of 5 samples = %v, want the 3rd", got)
	}
	if got := percentile(five, 99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the largest", got)
	}
	if got := percentile(five, 0); got != 1 {
		t.Errorf("p0 = %v, want the smallest", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	// "At least ten samples beyond": 2200 tcp requests support a p99, the
	// ~600 entries of a simulated window do not, and the count says so.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{2200, 99, 22}, {600, 99, 6}, {600, 50, 300}, {1000, 99, 10}, {5, 50, 2}, {0, 99, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if samplesBeyond(1000, 99) < minBeyond || samplesBeyond(999, 99) >= minBeyond {
		t.Error("the ten-sample rule should hold from exactly 1000 samples at p99")
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	in := []float64{9, 7, 8}
	median(in)
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	reps := []*result{
		{Metrics: map[string]value{"commit_tps": {10, "txn/s"}}},
		{Metrics: map[string]value{"commit_tps": {30, "txn/s"}}},
		{Metrics: map[string]value{"commit_tps": {20, "txn/s"}}},
	}
	if got := medianOf(reps, "commit_tps"); got != 20 {
		t.Errorf("median of R=3 repetitions = %v, want 20", got)
	}
}

// chain builds a ledger's blocks: per group, the executed sequence numbers,
// every block a full batch.
func chain(seqs ...[]uint64) (blocks []*ledger.Block) {
	for g, ss := range seqs {
		for _, s := range ss {
			blocks = append(blocks, &ledger.Block{Entry: types.EntryID{GID: g, Seq: s}, Committed: simMaxBatch - 10, Aborted: 10})
		}
	}
	return blocks
}

func TestLedgerOpsCountsShedAndLostLoad(t *testing.T) {
	open := massbft.Config{Groups: []int{4, 4}, GroupRate: []float64{4000, 4000}}
	sat := massbft.Config{Groups: []int{4, 4}}
	for _, c := range []struct {
		name              string
		cfg               massbft.Config
		load              time.Duration
		blocks            []*ledger.Block
		attempted, failed int64
	}{
		// 0.5 s at 4000 txn/s is five batches offered per group; the fifth
		// was still filling when the load stopped.
		{"open loop, healthy", open, 500 * time.Millisecond, chain([]uint64{1, 2, 3, 4}, []uint64{1, 2, 3, 4}), 4000, 0},
		// Group 1 stalled and shed two batches beyond the exempt one.
		{"open loop, a group shed load", open, 500 * time.Millisecond, chain([]uint64{1, 2, 3, 4}, []uint64{1, 2}), 4000, 800},
		{"open loop, nothing executed", open, 500 * time.Millisecond, nil, 4000, 3200},
		// A new leader's full backlog can push executions past the offer.
		{"open loop, more executed than offered", open, 500 * time.Millisecond, chain([]uint64{1, 2, 3, 4, 5, 6}, []uint64{1, 2, 3, 4}), 4000, 0},
		{"saturation, healthy", sat, time.Second, chain([]uint64{1, 2, 3}, []uint64{1, 2}), 2000, 0},
		// Batch 2 of group 0 can never execute once batch 3 has.
		{"saturation, a batch lost for good", sat, time.Second, chain([]uint64{1, 3}, []uint64{1, 2}), 2000, 400},
	} {
		attempted, failed := ledgerOps(c.cfg, c.load, c.blocks)
		if attempted != c.attempted || failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d", c.name, attempted, failed, c.attempted, c.failed)
		}
	}
}

// A run offered more than it can execute converges, and still reports the
// load its generators shed as failed operations.
func TestOverloadedOpenLoopRunReportsFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster")
	}
	w := simWorkload{
		name: "overload",
		config: func(seed int64) massbft.Config {
			return massbft.Config{Groups: []int{4, 4}, Workload: "ycsb-a", Seed: seed, GroupRate: []float64{60000, 60000}}
		},
		virtPerSecond: 0.5,
		drainBudget:   2 * time.Second,
	}
	r, err := w.run(runOpts{workload: w.name, seed: 1, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct {
		t.Fatalf("overloaded run failed its gate: %v", r.notes)
	}
	warm, virt := simWindows(1, w.virtPerSecond)
	offered := int64(2 * 60000 * (warm + virt).Seconds())
	t.Logf("offered %d, failed %d", r.Attempted, r.Failed)
	if r.Attempted != offered || r.Failed <= 0 || r.Failed >= r.Attempted {
		t.Errorf("attempted %d failed %d, want %d offered and part of it failed", r.Attempted, r.Failed, offered)
	}
}

func TestFailedGateFailsEveryOp(t *testing.T) {
	r := newResult()
	r.Attempted, r.Failed = 1000, 3
	r.fail("verdict %s, want converged", massbft.AgreementWedged)
	if err := r.emit(io.Discard, false); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed != r.Attempted {
		t.Errorf("correct %v, failed %d of %d; a failed gate fails every operation", r.Correct, r.Failed, r.Attempted)
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bj.Paths)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	runnable := map[string]bool{tcpName: true}
	for _, w := range simWorkloads {
		runnable[w.name] = true
	}
	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		checkName("workload", w.Name)
		if w != workloadDefs[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		if !runnable[w.Name] {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}

	compare := func(kind string, declared, emitted []metricDef, limit int) {
		if len(declared) < 1 || len(declared) > limit {
			t.Errorf("%d %s metrics, want 1..%d", len(declared), kind, limit)
		}
		if len(declared) != len(emitted) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, harness emits %d", len(declared), kind, len(emitted))
		}
		for i, d := range declared {
			checkName(kind, d.Name)
			if d != emitted[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, d, emitted[i])
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, 16)
	compare("per_layer", bj.PerLayer, perLayer(), 128)
	var setup *metricDef
	for i, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &bj.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared with unit s, better lower: %+v", setup)
	}
	for _, d := range bj.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}

	// Every per-layer name a run can set is declared, and a fresh result
	// already carries every declared one.
	fresh := newResult()
	if len(fresh.layer) != len(bj.PerLayer) {
		t.Errorf("a result carries %d per-layer metrics, BENCHMARK.json declares %d", len(fresh.layer), len(bj.PerLayer))
	}
	for _, d := range driveMetrics {
		if _, ok := fresh.layer[d.Name]; !ok {
			t.Errorf("drive metric %s not carried by results", d.Name)
		}
	}
}

// TestSmoke runs the whole harness — every workload, untraced and traced,
// the drives, the tables — at toy scale, so harness rot shows without
// paying for a full run. No bounds are applied.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns every workload")
	}
	t.Setenv("BENCH_AS_MAIN", "1")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	// The tail of the output is one result object per workload and kind.
	type line struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		result
	}
	want := map[int][]metricDef{0: endToEnd, 1: perLayer()}
	got := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r line
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("result line does not parse: %v\n%s", err, l)
		}
		got[r.Workload+"/"+string(rune('0'+r.Trace))] = true
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(want[r.Trace]) {
			t.Errorf("%s trace=%d: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(want[r.Trace]))
		}
		for _, d := range want[r.Trace] {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s trace=%d: metric %s = %+v (present %v)", r.Workload, r.Trace, d.Name, v, ok)
			}
			if r.Trace == 0 && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", r.Workload, d.Name, v.Value)
			}
		}
		if r.Trace == 1 {
			var cpu float64
			for _, l := range layers {
				cpu += r.Metrics[l+".cpu_share"].Value
			}
			if math.Abs(cpu-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", r.Workload, cpu)
			}
		}
	}
	for _, w := range workloadDefs {
		for _, k := range []string{"/0", "/1"} {
			if !got[w.Name+k] {
				t.Errorf("no result line for %s%s", w.Name, k)
			}
		}
	}
}
