package main

// The names fixed by this benchmark. Later issues cite workloads and
// metrics by these names; BENCHMARK.json at the repository root declares
// the same sets (TestNamesMatchBenchmarkJSON keeps the two in step).

// runSeconds is BENCHMARK.json's run_seconds: the --seconds value every
// documented baseline was measured at.
const runSeconds = 20

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"sim-sat-3x7", "simulated 3x7 at saturation, modelled crypto: execution, pbft, replication, erasure, ordering, GC carry it; keys verify, gateway, wire codec, TCP idle. commit_*, net_bytes exact at equal seed"},
	{"sim-gw-crypto-3x4", "simulated 3x4, 1024 closed-loop gateway clients, real Ed25519, read-heavy ycsb-b: keys and gateway dominate; erasure and Aria gains must not show. commit_*, net_bytes exact at equal seed"},
	{"sim-faults-3x4", "simulated 3x4, open loop 3x4000 txn/s, WAN loss, duplication, jitter, a follower per group crashed then rejoined: repair and state transfer work. commit_*, net_bytes exact at equal seed"},
	{"tcp-gw-2x3", "six real nodes over loopback TCP, 8 closed-loop signed clients, 8 fresh deployments per run: the only workload that runs wire codec, framing, transport/tcp, gwserver and client; simnet idle"},
}

// endToEnd lists the nine user-visible metrics. A bound is the share of the
// parent's median by which the metric may worsen; one bound serves all four
// workloads and runs at different seeds, so each is at least three times the
// widest spread across ten seeds measured on any workload (README.md,
// "Bounds"), capped at 0.25. That is far too loose for the simulator's
// commit_* and net_bytes_per_txn, which repeat bit for bit at equal seed:
// those are gated by equality at equal seed (exactOnSim, -aa), not by these
// bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_tps", "txn/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p99_ms", "ms", "lower", 0.25},
	{"host_us_per_txn", "us", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.10},
	{"alloc_kb_per_txn", "KiB", "lower", 0.10},
	{"max_rss_mb", "MiB", "lower", 0.25},
	{"net_bytes_per_txn", "B", "lower", 0.10},
}

// stages are the virtual critical-path stages reported per sim workload;
// "other" collects every stage the analyser reports beyond these (pbft
// sub-phases, whole-entry WAN copies, idle wait) so the column still sums
// to Trace.E2EAvg.
var stages = []string{
	"propose", "local-consensus", "encode", "wan-chunk", "chunk-collect",
	"rebuild", "global-replication", "cert-assembly", "ordering-wait",
	"execute", "other",
}

// countMetrics come from program counters and harness clocks on every run.
var countMetrics = []metricDef{
	{"simnet.wall_s_per_virt_s", "s/s", "lower", 0},
	{"core.stalled_s", "s", "lower", 0},
	{"core.drain_virt_s", "s", "lower", 0},
	{"core.fetch_retries_per_kentry", "count", "lower", 0},
	{"core.slot_catchups", "count", "lower", 0},
	{"core.state_transfers", "count", "lower", 0},
	{"replication.repair_reqs_per_kentry", "count", "lower", 0},
	{"core.view_retries", "count", "lower", 0},
	{"aria.abort_share", "share", "lower", 0},
	{"gateway.txns_per_entry", "count", "higher", 0},
	{"gateway.resubmits_per_ktxn", "count", "lower", 0},
	{"gateway.rejected_share", "share", "lower", 0},
	{"transport.bytes_out_per_txn", "B", "lower", 0},
	{"transport.queue_drops", "count", "lower", 0},
	{"forensics.report_ms", "ms", "lower", 0},
}

// traceMetrics come from the traced run beside the layer shares; the
// core.lanloss_* four from the LAN-loss variant a traced sim-faults-3x4 run
// adds (sim.go, runLANLoss), zero on every other workload.
var traceMetrics = []metricDef{
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.spans_per_entry", "count", "lower", 0},
	{"core.lanloss_commit_tps", "txn/s", "higher", 0},
	{"core.lanloss_commit_p99_ms", "ms", "lower", 0},
	{"core.lanloss_slot_catchups", "count", "lower", 0},
	{"core.lanloss_view_retries", "count", "lower", 0},
}

// driveMetrics are the isolated drives of drives.go.
var driveMetrics = []metricDef{
	{"gf256.muladd_mb_s", "MB/s", "higher", 0},
	{"erasure.split_us", "us", "lower", 0},
	{"erasure.reconstruct_us", "us", "lower", 0},
	{"merkle.build_us", "us", "lower", 0},
	{"merkle.verify_us", "us", "lower", 0},
	{"keys.sign_us", "us", "lower", 0},
	{"keys.verify_us", "us", "lower", 0},
	{"keys.verify_cert_us", "us", "lower", 0},
	{"keys.verify_cert_memo_ns", "ns", "lower", 0},
	{"types.entry_encode_us", "us", "lower", 0},
	{"types.entry_digest_us", "us", "lower", 0},
	{"replication.encode_us", "us", "lower", 0},
	{"replication.rebuild_us", "us", "lower", 0},
	{"pbft.slot_us_n4", "us", "lower", 0},
	{"pbft.slot_us_n7", "us", "lower", 0},
	{"pbft.msgs_per_slot_n7", "count", "lower", 0},
	{"order.entry_ns", "ns", "lower", 0},
	{"aria.txn_ns_ycsb_a", "ns", "lower", 0},
	{"aria.txn_ns_ycsb_b", "ns", "lower", 0},
	{"statedb.hash_ms", "ms", "lower", 0},
	{"statedb.apply_ns_per_key", "ns", "lower", 0},
	{"ledger.append_ns", "ns", "lower", 0},
	{"workload.next_ns", "ns", "lower", 0},
	{"gateway.submit_us", "us", "lower", 0},
	{"gateway.take_batch_ns", "ns", "lower", 0},
	{"cluster.wire_encode_ns", "ns", "lower", 0},
	{"cluster.wire_decode_ns", "ns", "lower", 0},
	{"cluster.wire_bytes_chunk_batch", "B", "lower", 0},
	{"transport.frame_write_ns", "ns", "lower", 0},
	{"transport.frame_read_ns", "ns", "lower", 0},
	{"transport.tcp_echo_us", "us", "lower", 0},
	{"simnet.sched_ns_per_event", "ns", "lower", 0},
}

// perLayer returns every per-layer metric in table order: the two share
// columns, the traced-run extras, the stage table, the counts, the drives.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".cpu_share", "share", "lower", 0})
	}
	for _, l := range layers {
		out = append(out, metricDef{l + ".alloc_share", "share", "lower", 0})
	}
	out = append(out, traceMetrics...)
	for _, s := range stages {
		out = append(out, metricDef{"stage." + s + "_ms", "ms", "lower", 0})
	}
	out = append(out, countMetrics...)
	return append(out, driveMetrics...)
}
