// Command massbft-demo runs a small MassBFT cluster end to end and prints
// live per-second statistics, then verifies that every node converged to the
// same state. It is the fastest way to see the whole stack working.
//
//	massbft-demo -groups 3 -nodes 4 -workload smallbank -duration 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"massbft"
)

func main() {
	groups := flag.Int("groups", 3, "number of groups (data centers)")
	nodes := flag.Int("nodes", 4, "nodes per group")
	workload := flag.String("workload", "ycsb-a", "workload: ycsb-a, ycsb-b, smallbank, tpcc")
	protocol := flag.String("protocol", "massbft", "protocol: massbft, baseline, geobft, steward, iss, br, ebr")
	duration := flag.Duration("duration", 10*time.Second, "virtual run duration")
	seed := flag.Int64("seed", 7, "simulation seed")
	wanDrop := flag.Float64("wan-drop", 0, "WAN per-message drop probability [0,1)")
	lanDrop := flag.Float64("lan-drop", 0, "LAN per-message drop probability [0,1)")
	dup := flag.Float64("dup", 0, "WAN per-message duplicate probability [0,1)")
	jitter := flag.Float64("jitter", 0, "extra latency jitter fraction [0,1)")
	crash := flag.Bool("crash", false, "crash one follower per group at T/4, recover at T/2 (checkpointed rejoin)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto) and print the critical-path breakdown")
	flag.Parse()

	for name, p := range map[string]float64{"wan-drop": *wanDrop, "lan-drop": *lanDrop, "dup": *dup, "jitter": *jitter} {
		if p < 0 || p >= 1 {
			fmt.Fprintf(os.Stderr, "massbft-demo: -%s must be in [0,1), got %v\n", name, p)
			os.Exit(2)
		}
	}
	gs := make([]int, *groups)
	for i := range gs {
		gs[i] = *nodes
	}
	cfg := massbft.Config{
		Groups:      gs,
		Protocol:    massbft.Protocol(*protocol),
		Workload:    *workload,
		Seed:        *seed,
		Warmup:      time.Second,
		WANDropRate: *wanDrop,
		LANDropRate: *lanDrop,
		WANDupRate:  *dup,
		FaultJitter: *jitter,
		TracePath:   *tracePath,
	}
	faulty := *wanDrop > 0 || *lanDrop > 0 || *dup > 0 || *jitter > 0 || *crash
	if faulty {
		// Arm every recovery mechanism: faults without repair would wedge.
		cfg.ViewChangeTimeout = 400 * time.Millisecond
		cfg.TakeoverTimeout = 400 * time.Millisecond
		cfg.RepairTimeout = 150 * time.Millisecond
	}
	c, err := massbft.NewCluster(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "massbft-demo: %v\n", err)
		os.Exit(1)
	}
	if *crash {
		if *nodes < 2 {
			fmt.Fprintln(os.Stderr, "massbft-demo: -crash needs at least 2 nodes per group")
			os.Exit(2)
		}
		// Followers only: leader crashes are a separate experiment
		// (view changes still trigger on lossy links regardless).
		for g := 0; g < *groups; g++ {
			c.CrashNode(*duration/4, g, 1)
			c.RecoverNode(*duration/2, g, 1)
		}
	}
	fmt.Printf("running %s on %d groups x %d nodes, workload %s, %v of virtual time\n",
		*protocol, *groups, *nodes, *workload, *duration)
	if faulty {
		fmt.Printf("faults: wan-drop=%.2f lan-drop=%.2f dup=%.2f jitter=%.2f crash=%v\n",
			*wanDrop, *lanDrop, *dup, *jitter, *crash)
	}

	res := c.Run(*duration)
	fmt.Printf("\n%-8s %-16s %s\n", "second", "throughput", "avg latency")
	for _, p := range res.Series {
		fmt.Printf("%-8d %-16.0f %v\n", p.Second, p.Throughput, p.AvgLatency.Round(time.Millisecond))
	}
	fmt.Printf("\nresult: %v\n", res)
	fmt.Printf("transport: fabric=sim wan-bytes-total=%d wan-bytes/node=%.0f dropped=%d duplicated=%d\n",
		res.WANBytesTotal, res.WANBytesPerNode,
		c.Counter("net-dropped"), c.Counter("net-duplicated"))
	if res.Trace != nil {
		fmt.Printf("\ncritical path (%d entries, %d spans, avg e2e %v):\n",
			res.Trace.Entries, res.Trace.Spans, res.Trace.E2EAvg.Round(time.Microsecond))
		for _, s := range res.Trace.Stages {
			fmt.Printf("  %-20s %8v  %5.1f%%\n", s.Stage, s.Avg.Round(time.Microsecond), 100*s.Share)
		}
	}

	// Agreement check: drain until every node's ledger and state converge,
	// then classify the outcome. Under fault injection the loss keeps
	// hitting repair traffic too, so a straggler may need many extra drain
	// rounds before it catches up — DrainToAgreement keeps draining while
	// the run is merely wedged (a laggard catching up) and stops early on a
	// fork (which no amount of draining can heal).
	budget := 2 * time.Second
	if faulty {
		budget = 12 * time.Second
	}
	rep := c.DrainToAgreement(500*time.Millisecond, budget)
	// Exported before the verdict, so that a run that forks leaves its trace.
	if err := c.WriteTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "massbft-demo: trace export: %v\n", err)
		os.Exit(1)
	}
	if rep.Verdict != massbft.AgreementConverged {
		fmt.Fprintf(os.Stderr, "AGREEMENT FAILURE: %v\n", rep)
		for _, n := range rep.Nodes {
			status := "live"
			if !n.Live {
				status = "down"
			}
			fmt.Fprintf(os.Stderr, "  node %d,%d [%s]: height=%d behind=%d head=%x state=%x\n",
				n.Group, n.Index, status, n.Height, n.Behind, n.Head[:6], n.State[:6])
		}
		os.Exit(1)
	}
	ref := c.StateHash(0, 0)
	fmt.Printf("agreement: %v, state %x\n", rep, ref[:8])
	if faulty {
		fmt.Printf("recovery: dropped=%d duplicated=%d chunk-repairs=%d fetch-retries=%d slot-catchups=%d state-transfers=%d\n",
			c.Counter("net-dropped"), c.Counter("net-duplicated"), c.Counter("repair-reqs"),
			c.Counter("fetch-retries"), c.Counter("slot-catchups"), c.Counter("state-transfers"))
	}
	if *tracePath != "" {
		fmt.Printf("trace: wrote %s\n", *tracePath)
	}
}
