// Command divergence-sweep runs the combined-fault demo preset across a seed
// range and emits a JSON verdict table: one classified agreement report per
// seed (converged / wedged / forked, with first divergent height and laggard
// census). It exits non-zero if any seed forks — a safety violation — and,
// with -fail-on-wedge, also if any seed fails to converge within the drain
// budget.
//
//	go run ./scripts/divergence-sweep -seeds 1-9 -out sweep.json
//
// The default fault mix is the one that historically exposed the congestion
// -collapse false-death bug (see DESIGN.md §13): 5% WAN loss, 1% LAN loss,
// 1% duplication, 10% latency jitter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"massbft"
)

type seedResult struct {
	Seed                 int64  `json:"seed"`
	Verdict              string `json:"verdict"`
	FirstDivergentHeight uint64 `json:"first_divergent_height,omitempty"`
	MinHeight            uint64 `json:"min_height"`
	MaxHeight            uint64 `json:"max_height"`
	Laggards             int    `json:"laggards,omitempty"`
	Branches             int    `json:"branches,omitempty"`
	Committed            int64  `json:"committed"`
	Detail               string `json:"detail,omitempty"`
}

type sweepOut struct {
	Config  map[string]any `json:"config"`
	Results []seedResult   `json:"results"`
	Summary map[string]int `json:"summary"`
}

func main() {
	seeds := flag.String("seeds", "1-9", "seed range `a-b` or comma list")
	groups := flag.Int("groups", 3, "number of groups")
	nodes := flag.Int("nodes", 4, "nodes per group")
	workload := flag.String("workload", "ycsb-a", "workload")
	duration := flag.Duration("duration", 10*time.Second, "virtual run duration per seed")
	drain := flag.Duration("drain", 12*time.Second, "virtual drain budget per seed")
	wanDrop := flag.Float64("wan-drop", 0.05, "WAN per-message drop probability")
	lanDrop := flag.Float64("lan-drop", 0.01, "LAN per-message drop probability")
	dup := flag.Float64("dup", 0.01, "WAN per-message duplicate probability")
	jitter := flag.Float64("jitter", 0.1, "latency jitter fraction")
	failOnWedge := flag.Bool("fail-on-wedge", false, "exit non-zero on wedged verdicts too")
	out := flag.String("out", "", "write the JSON table here (default stdout)")
	flag.Parse()

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "divergence-sweep: %v\n", err)
		os.Exit(2)
	}

	sweep := sweepOut{
		Config: map[string]any{
			"groups": *groups, "nodes": *nodes, "workload": *workload,
			"duration_ms": duration.Milliseconds(), "drain_ms": drain.Milliseconds(),
			"wan_drop": *wanDrop, "lan_drop": *lanDrop, "dup": *dup, "jitter": *jitter,
		},
		Summary: map[string]int{},
	}
	for _, seed := range seedList {
		r, err := runSeed(seed, *groups, *nodes, *workload, *duration, *drain,
			*wanDrop, *lanDrop, *dup, *jitter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "divergence-sweep: seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "seed %-4d %s\n", seed, r.Detail)
		sweep.Results = append(sweep.Results, r)
		sweep.Summary[r.Verdict]++
	}

	raw, _ := json.MarshalIndent(sweep, "", "  ")
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "divergence-sweep: %v\n", err)
		os.Exit(1)
	}

	if sweep.Summary[string(massbft.AgreementForked)] > 0 {
		fmt.Fprintln(os.Stderr, "divergence-sweep: FORKED verdicts present (safety violation)")
		os.Exit(1)
	}
	if *failOnWedge && sweep.Summary[string(massbft.AgreementWedged)] > 0 {
		fmt.Fprintln(os.Stderr, "divergence-sweep: wedged verdicts present")
		os.Exit(1)
	}
}

func runSeed(seed int64, groups, nodes int, workload string,
	duration, drain time.Duration, wanDrop, lanDrop, dup, jitter float64) (seedResult, error) {
	gs := make([]int, groups)
	for i := range gs {
		gs[i] = nodes
	}
	c, err := massbft.NewCluster(massbft.Config{
		Groups:             gs,
		Workload:           workload,
		Seed:               seed,
		Warmup:             time.Second,
		WANDropRate:        wanDrop,
		LANDropRate:        lanDrop,
		WANDupRate:         dup,
		FaultJitter:        jitter,
		ViewChangeTimeout:  400 * time.Millisecond,
		TakeoverTimeout:    400 * time.Millisecond,
		RepairTimeout:      150 * time.Millisecond,
		CheckpointInterval: 500 * time.Millisecond,
	})
	if err != nil {
		return seedResult{}, err
	}
	res := c.Run(duration)
	rep := c.DrainToAgreement(500*time.Millisecond, drain)
	return seedResult{
		Seed:                 seed,
		Verdict:              string(rep.Verdict),
		FirstDivergentHeight: rep.FirstDivergentHeight,
		MinHeight:            rep.MinHeight,
		MaxHeight:            rep.MaxHeight,
		Laggards:             len(rep.Laggards),
		Branches:             len(rep.Branches),
		Committed:            res.Committed,
		Detail:               rep.String(),
	}, nil
}

// parseSeeds accepts "a-b" ranges and comma lists ("1,5,42").
func parseSeeds(s string) ([]int64, error) {
	if a, b, ok := strings.Cut(s, "-"); ok && !strings.Contains(s, ",") {
		lo, err1 := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
		hi, err2 := strconv.ParseInt(strings.TrimSpace(b), 10, 64)
		if err1 != nil || err2 != nil || hi < lo {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
