package massbft

// bench_test.go holds one testing.B benchmark per table/figure of the
// paper's evaluation. Benchmarks run reduced-scale configurations (fewer
// nodes, shorter virtual windows) so `go test -bench=.` completes in
// minutes; `cmd/massbft-bench` runs the full-scale regenerations whose
// numbers EXPERIMENTS.md records. Each benchmark reports the figure's
// headline metric via b.ReportMetric (tps, ms, KB/entry, ...) — wall-clock
// ns/op measures only the simulator, not the protocol.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// benchRun executes one configuration per b.N iteration and reports
// throughput and latency.
func benchRun(b *testing.B, cfg Config) Result {
	b.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = time.Second
	}
	var last Result
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = c.Run(4 * time.Second)
	}
	b.ReportMetric(last.Throughput, "tps")
	b.ReportMetric(float64(last.AvgLatency.Milliseconds()), "lat_ms")
	return last
}

// BenchmarkFig1bGeoBFTScaling: GeoBFT throughput vs group size (the leader
// bottleneck that motivates MassBFT).
func BenchmarkFig1bGeoBFTScaling(b *testing.B) {
	for _, n := range []int{4, 7, 13} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			benchRun(b, Config{Groups: []int{n, n, n}, Protocol: ProtocolGeoBFT, Workload: "ycsb-a"})
		})
	}
}

// BenchmarkFig2RoundVsAsyncOrdering: a fast group offered 2x the slow
// group's load; round ordering caps it, async ordering does not.
func BenchmarkFig2RoundVsAsyncOrdering(b *testing.B) {
	for _, p := range []Protocol{ProtocolBaseline, ProtocolMassBFT} {
		b.Run(string(p), func(b *testing.B) {
			benchRun(b, Config{
				Groups:    []int{4, 4},
				Protocol:  p,
				Workload:  "ycsb-a",
				MaxBatch:  50,
				GroupRate: []float64{1000, 2000},
			})
		})
	}
}

// BenchmarkFig8Nationwide: overall performance per protocol and workload on
// the nationwide latency matrix (Fig 8a-8d).
func BenchmarkFig8Nationwide(b *testing.B) {
	for _, w := range []string{"ycsb-a", "ycsb-b", "smallbank", "tpcc"} {
		for _, p := range []Protocol{ProtocolMassBFT, ProtocolBaseline, ProtocolGeoBFT, ProtocolISS, ProtocolSteward} {
			b.Run(w+"/"+string(p), func(b *testing.B) {
				res := benchRun(b, Config{Groups: []int{4, 4, 4}, Protocol: p, Workload: w})
				b.ReportMetric(res.AbortRate, "abort_rate")
			})
		}
	}
}

// BenchmarkFig9Worldwide: the same on the worldwide latency matrix.
func BenchmarkFig9Worldwide(b *testing.B) {
	for _, p := range []Protocol{ProtocolMassBFT, ProtocolBaseline, ProtocolGeoBFT, ProtocolISS, ProtocolSteward} {
		b.Run(string(p), func(b *testing.B) {
			benchRun(b, Config{Groups: []int{4, 4, 4}, Protocol: p, Workload: "ycsb-a", Latency: Worldwide})
		})
	}
}

// BenchmarkFig10ReplicationTraffic: WAN bytes per entry, MassBFT vs
// Baseline, at a fixed batch size.
func BenchmarkFig10ReplicationTraffic(b *testing.B) {
	for _, p := range []Protocol{ProtocolMassBFT, ProtocolBaseline} {
		b.Run(string(p), func(b *testing.B) {
			var kbPerEntry float64
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(Config{
					Groups: []int{7, 7, 7}, Protocol: p, Workload: "ycsb-a",
					MaxBatch: 100, Seed: 42, Warmup: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := c.Run(3 * time.Second)
				if res.Entries > 0 {
					kbPerEntry = float64(res.WANBytesTotal) / float64(res.Entries) / 1024
				}
			}
			b.ReportMetric(kbPerEntry, "KB/entry")
		})
	}
}

// BenchmarkFig11LatencyBreakdown: per-stage latency of the MassBFT pipeline,
// from the tracing subsystem's critical-path analysis (the per-stage values
// sum to the end-to-end critical-path window).
func BenchmarkFig11LatencyBreakdown(b *testing.B) {
	res := benchRun(b, Config{
		Groups: []int{4, 4, 4}, Protocol: ProtocolMassBFT, Workload: "ycsb-a",
		TracePath: filepath.Join(b.TempDir(), "fig11-trace.json"),
	})
	if res.Trace == nil {
		b.Fatal("tracing enabled but no trace report")
	}
	for _, s := range res.Trace.Stages {
		b.ReportMetric(float64(s.Avg.Microseconds()), s.Stage+"_us")
	}
	b.ReportMetric(float64(res.Trace.E2EAvg.Microseconds()), "critpath_e2e_us")
}

// BenchmarkFig12AblationLadder: Baseline -> BR -> EBR -> MassBFT on
// heterogeneous group sizes (4,7,7).
func BenchmarkFig12AblationLadder(b *testing.B) {
	for _, p := range []Protocol{ProtocolBaseline, ProtocolBR, ProtocolEBR, ProtocolMassBFT} {
		b.Run(string(p), func(b *testing.B) {
			benchRun(b, Config{Groups: []int{4, 7, 7}, Protocol: p, Workload: "ycsb-a"})
		})
	}
}

// BenchmarkFig13aNodeScaling: throughput scaling with nodes per group.
func BenchmarkFig13aNodeScaling(b *testing.B) {
	for _, n := range []int{4, 7, 16} {
		for _, p := range []Protocol{ProtocolMassBFT, ProtocolBaseline} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, p), func(b *testing.B) {
				benchRun(b, Config{Groups: []int{n, n, n}, Protocol: p, Workload: "ycsb-a"})
			})
		}
	}
}

// BenchmarkFig13bGroupScaling: throughput scaling with the number of groups.
func BenchmarkFig13bGroupScaling(b *testing.B) {
	for _, ng := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("groups=%d", ng), func(b *testing.B) {
			groups := make([]int, ng)
			for i := range groups {
				groups[i] = 4
			}
			benchRun(b, Config{Groups: groups, Protocol: ProtocolMassBFT, Workload: "ycsb-a"})
		})
	}
}

// BenchmarkFig14SlowNodes: MassBFT tolerating nodes with halved bandwidth.
func BenchmarkFig14SlowNodes(b *testing.B) {
	for _, slow := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("slow=%d", slow), func(b *testing.B) {
			var last Result
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(Config{
					Groups: []int{7, 7, 7}, Protocol: ProtocolMassBFT, Workload: "ycsb-a",
					WANBandwidth: 40e6 / 8, Seed: 42, Warmup: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				for g := 0; g < 3; g++ {
					for j := 0; j < slow; j++ {
						c.SetNodeBandwidth(g, j+1, 20e6/8)
					}
				}
				last = c.Run(4 * time.Second)
			}
			b.ReportMetric(last.Throughput, "tps")
		})
	}
}

// BenchmarkFig15FaultTimeline: throughput through Byzantine tampering and a
// group crash; reports the steady rates before and after. The group crashed
// at 6 s is certified dead in second 11 (SuspectTimeout = 4x TakeoverTimeout,
// then certification) and the backlog drains in 11-12, so "after" is 13.
func BenchmarkFig15FaultTimeline(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(Config{
			Groups: []int{4, 4, 4}, Protocol: ProtocolMassBFT, Workload: "ycsb-a",
			Seed: 42, Warmup: time.Second, TakeoverTimeout: time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.MakeByzantine(3*time.Second, 1)
		c.CrashGroup(6*time.Second, 0)
		res := c.Run(14 * time.Second)
		before, after = 0, 0
		for _, p := range res.Series {
			if p.Second == 2 {
				before = p.Throughput
			}
			if p.Second == 13 {
				after = p.Throughput
			}
		}
	}
	b.ReportMetric(before, "tps_before")
	b.ReportMetric(after, "tps_after_crash")
}

// BenchmarkTableIIProtocolMatrix runs every protocol of Table II once at the
// same small scale — a smoke-level comparison of the full feature matrix.
func BenchmarkTableIIProtocolMatrix(b *testing.B) {
	for _, p := range Protocols() {
		b.Run(string(p), func(b *testing.B) {
			benchRun(b, Config{Groups: []int{4, 4, 4}, Protocol: p, Workload: "ycsb-a"})
		})
	}
}

// BenchmarkGatewayClientLoad measures the client gateway subsystem end to
// end on the emulator: closed-loop clients sign requests, submit through
// authenticated intake and adaptive batching, and collect f+1 signed reply
// certificates. certs_per_s is the client-visible committed rate (requests
// certified per virtual second, including warm-up — certificates are counted
// run-wide); tps the usual windowed executed-transaction rate.
func BenchmarkGatewayClientLoad(b *testing.B) {
	for _, clients := range []int{64, 256} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var last Result
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(Config{
					Groups: []int{4, 4}, Protocol: ProtocolMassBFT, Workload: "ycsb-a",
					Seed: 42, Warmup: time.Second, GatewayClients: clients,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c.Run(4 * time.Second)
				if last.ClientCommitted == 0 {
					b.Fatal("no client request earned a reply certificate")
				}
			}
			b.ReportMetric(float64(last.ClientCommitted)/4.0, "certs_per_s")
			b.ReportMetric(last.Throughput, "tps")
		})
	}
}
