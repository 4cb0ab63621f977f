package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"massbft"
	"massbft/internal/ledger"
)

// simWorkload is one workload on the deterministic simulator. Its run clock
// is virtual time: commit_tps, both latencies and net_bytes_per_txn repeat
// exactly for a given seed, and reflect the injected Nationwide WAN delay
// and (unless RealCrypto is set) the modelled signature cost.
type simWorkload struct {
	name   string
	config func(seed int64) massbft.Config
	// virtPerSecond is how many virtual seconds one --seconds second buys:
	// the simulator runs 3-5x slower than the clock it simulates, and the
	// factor differs per geometry.
	virtPerSecond float64
	drainBudget   time.Duration
	// crashFollowers crashes follower 1 of every group a quarter into the
	// run (warm-up included) and recovers it at the half-way point.
	crashFollowers bool
	// lanLoss makes a traced run also run the LAN-loss variant (runLANLoss).
	lanLoss bool
}

const (
	simWarmup    = time.Second
	simDrainStep = 500 * time.Millisecond
	// simMaxBatch is the proposers' batch size (the repository's default,
	// set explicitly because the operation count below needs it).
	simMaxBatch = 400
	// setup_s is the median of up to simSetupsBefore NewCluster calls before
	// the run, one per four seconds of run, and one fewer after it (a smoke
	// run builds its cluster once).
	simSetupsBefore = 5
)

// faultsConfig is the documented combined-fault preset minus its LAN loss,
// driven open loop below capacity (4000 txn/s offered per group) so that
// requests due during a fault are still offered. README.md, section
// "sim-faults-3x4", has the measurements behind both choices.
func faultsConfig(seed int64) massbft.Config {
	return massbft.Config{Groups: []int{4, 4, 4}, Workload: "ycsb-a", Seed: seed,
		GroupRate:   []float64{4000, 4000, 4000},
		WANDropRate: .05, WANDupRate: .01, FaultJitter: .1,
		ViewChangeTimeout: 400 * time.Millisecond, TakeoverTimeout: 400 * time.Millisecond,
		RepairTimeout: 150 * time.Millisecond, CheckpointInterval: 500 * time.Millisecond}
}

var simWorkloads = []simWorkload{
	{
		name: "sim-sat-3x7",
		config: func(seed int64) massbft.Config {
			return massbft.Config{Groups: []int{7, 7, 7}, Workload: "ycsb-a", Seed: seed}
		},
		virtPerSecond: 0.2,
		drainBudget:   2 * time.Second,
	},
	{
		name: "sim-gw-crypto-3x4",
		config: func(seed int64) massbft.Config {
			return massbft.Config{Groups: []int{4, 4, 4}, Workload: "ycsb-b", Seed: seed,
				GatewayClients: 1024, RealCrypto: true}
		},
		virtPerSecond: 0.15,
		drainBudget:   2 * time.Second,
	},
	{
		name:           "sim-faults-3x4",
		config:         faultsConfig,
		virtPerSecond:  0.95,
		drainBudget:    12 * time.Second,
		crashFollowers: true,
		lanLoss:        true,
	},
}

// windowCounters are the program counters reported as deltas over the
// measured window.
var windowCounters = []string{
	"fetch-retries", "slot-catchups", "state-transfers", "repair-reqs",
	"proposal-retries", "record-retries", "gateway-submitted", "gateway-rejected-rate",
	"gateway-rejected-overload", "client-committed", "client-resubmitted",
}

func readCounters(c *massbft.Cluster) map[string]int64 {
	m := make(map[string]int64, len(windowCounters))
	for _, name := range windowCounters {
		m[name] = c.Counter(name)
	}
	return m
}

// simWindows splits a virtual run length into warm-up and measured window.
func simWindows(seconds int, virtPerSecond float64) (warm, virt time.Duration) {
	virt = time.Duration(float64(seconds) * virtPerSecond * float64(time.Second))
	if warm = simWarmup; virt/2 < warm {
		warm = virt / 2 // smoke runs
	}
	return warm, virt
}

// settle drains c to a classified agreement verdict and applies the
// simulated workloads' correctness gate: the verdict must be converged and
// every live node must report the same state hash. It is
// DrainToAgreement(simDrainStep, budget) spelled out, so that the virtual
// time drained and the wall time of one AgreementReport are known.
func settle(r *result, c *massbft.Cluster, budget time.Duration) (rep massbft.AgreementReport, drained, report time.Duration) {
	began := time.Now()
	for {
		c.Drain(simDrainStep)
		drained += simDrainStep
		reportBegan := time.Now()
		rep = c.AgreementReport()
		report = time.Since(reportBegan)
		if rep.Verdict != massbft.AgreementWedged || drained+simDrainStep > budget {
			break
		}
	}
	r.notef("agreement: %v (drained %v virtual in %v wall)", rep, drained, time.Since(began).Round(time.Millisecond))
	if rep.Verdict != massbft.AgreementConverged {
		r.fail("verdict %s, want converged", rep.Verdict)
	}
	var ref *massbft.NodeAgreement
	for i := range rep.Nodes {
		n := &rep.Nodes[i]
		if !n.Live {
			continue
		}
		if ref == nil {
			ref = n
		} else if n.State != ref.State {
			r.fail("state hash of node %d,%d differs from node %d,%d", n.Group, n.Index, ref.Group, ref.Index)
		}
	}
	return rep, drained, report
}

// liveLedger returns the ledger of the first live node of rep: after a
// converged drain, every live node's.
func liveLedger(c *massbft.Cluster, rep massbft.AgreementReport) ([]*ledger.Block, error) {
	for _, n := range rep.Nodes {
		if !n.Live {
			continue
		}
		var chain bytes.Buffer
		if err := c.Checkpoint(n.Group, n.Index, io.Discard, &chain); err != nil {
			return nil, err
		}
		l, err := ledger.Load(&chain)
		if err != nil {
			return nil, err
		}
		return l.Suffix(0), nil
	}
	return nil, fmt.Errorf("bench: no live node to read a ledger from")
}

// ledgerOps counts the operations of a run whose leaders generate their own
// load, over the whole run (warm-up and drain included), from one node's
// ledger after the drain. An operation is a transaction; Aria's conflict
// aborts are an outcome (aria.abort_share), not a failure.
//
// Open loop (GroupRate set): attempted is what was offered, rate x load
// seconds per group, and failed what of it never executed. One batch per
// group is exempt: the batch a generator was still filling when the load
// stopped is never proposed. What fails is the load a generator shed because
// its group was stalled, and whatever was proposed and lost.
//
// Saturation: there is no offered count, and the program exposes no count of
// proposals, so attempted is what executed plus what the ledger proves lost:
// a group's streams execute in sequence order, so a sequence number missing
// below an executed one is a proposed batch that will never execute.
func ledgerOps(cfg massbft.Config, load time.Duration, blocks []*ledger.Block) (attempted, failed int64) {
	var executed, missing int64
	last := make([]uint64, len(cfg.Groups))
	for _, b := range blocks {
		executed += int64(b.Committed) + int64(b.Aborted)
		if g := b.Entry.GID; b.Entry.Seq > last[g] {
			missing += int64(b.Entry.Seq - last[g] - 1)
			last[g] = b.Entry.Seq
		}
	}
	if len(cfg.GroupRate) == 0 {
		failed = missing * simMaxBatch
		return executed + failed, failed
	}
	for _, rate := range cfg.GroupRate {
		attempted += int64(rate * load.Seconds())
	}
	if failed = attempted - executed - int64(len(cfg.Groups))*simMaxBatch; failed < 0 {
		failed = 0
	}
	return attempted, failed
}

func (w *simWorkload) run(o runOpts) (*result, error) {
	r := newResult()
	warm, virt := simWindows(o.seconds, w.virtPerSecond)
	cfg := w.config(o.seed)
	cfg.Warmup, cfg.MaxBatch = warm, simMaxBatch
	if o.trace {
		// Only Result.Trace is wanted; the Chrome JSON the simulator also
		// writes on every Run is discarded.
		cfg.TracePath = os.DevNull
	}

	// Set-up, several times over; the last cluster built before the run is
	// the one that runs. NewCluster is pure computation (the Zipf constant),
	// so its time is the box's momentary CPU speed, which on a shared box
	// moves in episodes of about a second: the samples are therefore taken
	// in two bursts, before the run and after it (README.md, "Bounds").
	var setups []float64
	build := func() (*massbft.Cluster, error) {
		began := time.Now()
		c, err := massbft.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if w.crashFollowers {
			for g := range cfg.Groups {
				c.CrashNode((warm+virt)/4, g, 1)
				c.RecoverNode((warm+virt)/2, g, 1)
			}
		}
		setups = append(setups, time.Since(began).Seconds())
		return c, nil
	}
	var c *massbft.Cluster
	builds := min(simSetupsBefore, 1+o.seconds/4)
	for i := 0; i < builds; i++ {
		var err error
		if c, err = build(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the discarded clusters

	warmRes := c.Run(warm)
	before := readCounters(c)
	win := window{trace: o.trace}
	if err := win.begin(); err != nil {
		return nil, err
	}
	res := c.Run(virt)
	if err := win.finish(); err != nil {
		return nil, err
	}
	after := readCounters(c)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	rep, drained, report := settle(r, c, w.drainBudget)
	for i := 1; i < builds; i++ {
		if _, err := build(); err != nil {
			return nil, err
		}
	}
	r.e2e["setup_s"] = median(setups)

	if res.Committed <= 0 {
		return nil, fmt.Errorf("bench: %s committed nothing in %v virtual", w.name, virt)
	}
	if cfg.GatewayClients > 0 {
		// Closed-loop clients: an operation is a request that ended, with a
		// certificate or by giving up. Every node executes every request
		// once, so cluster-wide executions / nodes is the ledger's count; a
		// client holding more certificates than that was certified twice.
		certified, gaveUp := c.Counter("client-committed"), c.Counter("client-gaveup")
		nodes := int64(len(rep.Nodes))
		inLedger := c.Counter("gateway-executed") / nodes
		r.Attempted = certified + gaveUp
		r.Failed = gaveUp
		if certified > inLedger {
			r.Failed += certified - inLedger
			r.fail("%d requests certified but only %d executed in the ledger", certified, inLedger)
		}
		r.notef("clients: %d certified, %d gave up, %d executed per node", certified, gaveUp, inLedger)
	} else {
		blocks, err := liveLedger(c, rep)
		if err != nil {
			return nil, err
		}
		r.Attempted, r.Failed = ledgerOps(cfg, warm+virt, blocks)
		r.notef("operations over the whole run: %d attempted, %d failed (ledger of %d blocks)", r.Attempted, r.Failed, len(blocks))
	}

	// End-to-end metrics.
	committed := float64(res.Committed)
	r.e2e["commit_tps"] = committed / virt.Seconds()
	r.e2e["commit_p50_ms"] = float64(res.P50Latency) / 1e6
	r.e2e["commit_p99_ms"] = float64(res.P99Latency) / 1e6
	r.e2e["net_bytes_per_txn"] = float64(res.WANBytesTotal-warmRes.WANBytesTotal) / committed
	win.hostMetrics(r, res.Committed)
	n := int(res.Entries)
	r.notef("latency samples: n=%d entries; %d beyond p50, %d beyond p99 (a tail needs %d)",
		n, samplesBeyond(n, 50), samplesBeyond(n, 99), minBeyond)

	// Per-layer counts.
	entries := float64(res.Entries)
	r.layer["simnet.wall_s_per_virt_s"] = win.wallTotal.Seconds() / virt.Seconds()
	r.layer["core.stalled_s"] = float64(stalledSeconds(res.Series, warm, warm+virt))
	r.layer["core.drain_virt_s"] = drained.Seconds()
	r.layer["forensics.report_ms"] = float64(report.Microseconds()) / 1e3
	r.layer["core.fetch_retries_per_kentry"] = 1000 * delta("fetch-retries") / entries
	r.layer["core.slot_catchups"] = delta("slot-catchups")
	r.layer["core.state_transfers"] = delta("state-transfers")
	r.layer["core.view_retries"] = delta("proposal-retries") + delta("record-retries")
	r.layer["replication.repair_reqs_per_kentry"] = 1000 * delta("repair-reqs") / entries
	r.layer["aria.abort_share"] = res.AbortRate
	r.layer["gateway.txns_per_entry"] = float64(res.Committed+res.Aborted) / entries
	if certified := delta("client-committed"); certified > 0 {
		r.layer["gateway.resubmits_per_ktxn"] = 1000 * delta("client-resubmitted") / certified
	}
	if submitted := delta("gateway-submitted"); submitted > 0 {
		r.layer["gateway.rejected_share"] = (delta("gateway-rejected-rate") + delta("gateway-rejected-overload")) / submitted
	}

	if o.trace {
		if err := c.TraceError(); err != nil {
			return nil, err
		}
		tr := res.Trace
		if tr == nil || tr.Entries == 0 {
			return nil, fmt.Errorf("bench: %s traced run produced no critical paths", w.name)
		}
		r.layer["trace.spans_per_entry"] = float64(tr.Spans) / float64(tr.Entries)
		rest := tr.E2EAvg
		var all []string
		for _, st := range tr.Stages {
			all = append(all, fmt.Sprintf("%s=%.3f", st.Stage, float64(st.Avg)/1e6))
			if _, ok := r.layer["stage."+st.Stage+"_ms"]; ok && st.Stage != "other" {
				r.layer["stage."+st.Stage+"_ms"] = float64(st.Avg) / 1e6
				rest -= st.Avg
			}
		}
		r.layer["stage.other_ms"] = float64(rest) / 1e6
		r.notef("critical path: %d entries, avg e2e %.3f ms, %d spans dropped; analyser stages (ms): %s",
			tr.Entries, float64(tr.E2EAvg)/1e6, tr.Dropped, strings.Join(all, " "))
		if w.lanLoss {
			return r, runLANLoss(r, o)
		}
	}
	return r, nil
}

// stalledSeconds counts the whole virtual seconds of [from, to) in which the
// observer committed nothing; a second the series never reached is a stall
// too.
func stalledSeconds(series []massbft.SeriesPoint, from, to time.Duration) (stalled int) {
	perSecond := make(map[int]float64, len(series))
	for _, p := range series {
		perSecond[p.Second] = p.Throughput
	}
	for s := int((from + time.Second - 1) / time.Second); time.Duration(s+1)*time.Second <= to; s++ {
		if perSecond[s] == 0 {
			stalled++
		}
	}
	return stalled
}

// lanLossVirtPerSecond sizes the LAN-loss variant: 10 virtual s, about 6 s
// of wall time, at the documented --seconds 20.
const lanLossVirtPerSecond = 0.5

// runLANLoss runs the LAN-loss variant of sim-faults-3x4 and fills the
// core.lanloss_* metrics from it: the same open-loop load under the whole
// documented combined-fault preset (LANDropRate .01 included) and no crash.
// It is the one place in the benchmark where PBFT catch-up and view change
// work. It is not an end-to-end workload because whether a 400 ms view
// change falls into a run decides its p99 (README.md, "sim-faults-3x4");
// its numbers are virtual, so they repeat bit for bit at equal seed and are
// to be compared that way. It must pass the same correctness gate.
func runLANLoss(r *result, o runOpts) error {
	warm, virt := simWindows(o.seconds, lanLossVirtPerSecond)
	cfg := faultsConfig(o.seed)
	cfg.LANDropRate, cfg.Warmup, cfg.MaxBatch = .01, warm, simMaxBatch
	c, err := massbft.NewCluster(cfg)
	if err != nil {
		return err
	}
	c.Run(warm)
	before := readCounters(c)
	res := c.Run(virt)
	after := readCounters(c)
	settle(r, c, 12*time.Second)
	r.layer["core.lanloss_commit_tps"] = float64(res.Committed) / virt.Seconds()
	r.layer["core.lanloss_commit_p99_ms"] = float64(res.P99Latency) / 1e6
	r.layer["core.lanloss_slot_catchups"] = float64(after["slot-catchups"] - before["slot-catchups"])
	r.layer["core.lanloss_view_retries"] = float64(after["proposal-retries"] - before["proposal-retries"] +
		after["record-retries"] - before["record-retries"])
	r.notef("LAN-loss variant: %d entries in %v virtual, %d stalled seconds", res.Entries, virt, stalledSeconds(res.Series, warm, warm+virt))
	return nil
}
