package massbft

// trace_integration_test.go exercises the tracing subsystem end to end on a
// real cluster run: the exported Chrome JSON parses and round-trips, every
// entry's critical-path partition sums to its end-to-end window, the
// critical-path averages agree with the latency metric, and — the load-bearing
// guarantee — tracing changes nothing about what the cluster commits.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"massbft/internal/trace"
)

func traceTestConfig(tracePath string) Config {
	return Config{
		Groups:   []int{3, 3},
		Protocol: ProtocolMassBFT,
		Workload: "ycsb-a",
		Seed:     11,
		MaxBatch: 40,
		// Measure (essentially) every entry so the trace analysis and the
		// latency metric cover the same set; a literal zero selects the
		// default 2 s warmup.
		Warmup:    time.Nanosecond,
		TracePath: tracePath,
	}
}

func TestTraceExportAndCriticalPath(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "trace.json")
	c, err := NewCluster(traceTestConfig(path))
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(2 * time.Second)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Run exported the trace (stat: %v): only WriteTrace may", err)
	}
	if err := c.WriteTrace(); err != nil {
		t.Fatalf("trace export failed: %v", err)
	}
	if err := c.TraceError(); err != nil {
		t.Fatalf("TraceError after a successful export: %v", err)
	}
	if res.Trace == nil {
		t.Fatal("tracing enabled but Result.Trace is nil")
	}
	if res.Trace.Entries == 0 || res.Trace.Spans == 0 {
		t.Fatalf("empty trace report: %+v", res.Trace)
	}
	if res.Trace.Dropped != 0 {
		t.Fatalf("recorder dropped %d spans in a small run", res.Trace.Dropped)
	}

	// The exported file must be valid Chrome trace-event JSON holding every
	// recorded span.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := trace.ReadChrome(f)
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(spans) != res.Trace.Spans {
		t.Fatalf("file holds %d spans, recorder had %d", len(spans), res.Trace.Spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("re-read span %s of entry %v ends before it starts", s.Stage, s.Entry)
		}
	}

	// Re-run the analysis on the round-tripped spans: every entry's partition
	// must be gapless (segments nest in the window and sum to the e2e latency
	// exactly, well within the 1% acceptance bound).
	rep := trace.Analyze(spans, c.inner.Cfg.Observer())
	if len(rep.Entries) == 0 {
		t.Fatal("no entries analyzed from exported file")
	}
	for _, p := range rep.Entries {
		var sum time.Duration
		for _, seg := range p.Segments {
			if seg.Start < p.Start || seg.End > p.End {
				t.Fatalf("entry %v: segment %+v escapes window [%v, %v]", p.Entry, seg, p.Start, p.End)
			}
			sum += seg.Dur()
		}
		e2e := p.E2E()
		diff := sum - e2e
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*float64(e2e) {
			t.Fatalf("entry %v: critical-path sum %v vs e2e %v (>1%% off)", p.Entry, sum, e2e)
		}
	}

	// The critical-path e2e average is the same quantity the latency metric
	// measures (propose → execution start at the observer); with no warmup
	// window the two must agree within 1%.
	diff := res.Trace.E2EAvg - res.AvgLatency
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.01*float64(res.AvgLatency) {
		t.Fatalf("critical-path e2e avg %v vs measured avg latency %v (>1%% off)",
			res.Trace.E2EAvg, res.AvgLatency)
	}

	// The per-stage averages partition the e2e average (up to a nanosecond of
	// integer-division rounding per stage).
	var stageSum time.Duration
	for _, s := range res.Trace.Stages {
		stageSum += s.Avg
	}
	if d := stageSum - res.Trace.E2EAvg; d > time.Duration(len(res.Trace.Stages)) ||
		d < -time.Duration(len(res.Trace.Stages)) {
		t.Fatalf("stage avgs sum to %v, want %v", stageSum, res.Trace.E2EAvg)
	}
}

// TestTracingIsPassive asserts the bit-identical guarantee: a traced run
// commits exactly what the untraced run commits — same ledger heads, same
// state hashes, same counts on every node.
func TestTracingIsPassive(t *testing.T) {
	t.Parallel()
	run := func(tracePath string) (*Cluster, Result) {
		c, err := NewCluster(traceTestConfig(tracePath))
		if err != nil {
			t.Fatal(err)
		}
		res := c.Run(2 * time.Second)
		c.Drain(time.Second)
		return c, res
	}
	plain, resPlain := run("")
	traced, resTraced := run(filepath.Join(t.TempDir(), "trace.json"))

	if resPlain.Committed != resTraced.Committed || resPlain.Entries != resTraced.Entries ||
		resPlain.Aborted != resTraced.Aborted {
		t.Fatalf("tracing changed results: plain %+v vs traced %+v", resPlain, resTraced)
	}
	for g, size := range []int{3, 3} {
		for j := 0; j < size; j++ {
			if plain.StateHash(g, j) != traced.StateHash(g, j) {
				t.Fatalf("node %d/%d: state hash differs with tracing on", g, j)
			}
			lp, lt := plain.Ledger(g, j), traced.Ledger(g, j)
			if lp.Height != lt.Height || lp.Head != lt.Head {
				t.Fatalf("node %d/%d: ledger differs with tracing on (plain %d/%x, traced %d/%x)",
					g, j, lp.Height, lp.Head[:4], lt.Height, lt.Head[:4])
			}
		}
	}
	if resPlain.Trace != nil {
		t.Fatal("untraced run produced a trace report")
	}
	if resTraced.Trace == nil {
		t.Fatal("traced run produced no trace report")
	}
}
