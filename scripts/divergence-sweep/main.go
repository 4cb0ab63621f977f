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
//
// -recipe false-death runs ROADMAP item 1's fork recipe on that mix instead:
// 2000 txn/s per group, follower 1 of every group crashed at 5 s and
// recovered at 10 s, Run 1 s then 19 s, a 12 s drain (it sets -duration and
// -drain). A forked row names its kind: "order" (two entries at one height),
// "payload" (one entry under two digests) or "execution" (one entry and one
// digest, two states).
//
//	go run ./scripts/divergence-sweep -recipe false-death -seeds 1-40
//
// Every row counts the cuts applied past a cursor (past_cut, and the first):
// a node outside group G applying G's dead or depart cut with its cursor on
// G past it — ROADMAP item 1(a)'s check, as the root tests' cutWatch makes it.
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
	"massbft/internal/cluster"
)

type seedResult struct {
	Seed                 int64  `json:"seed"`
	Verdict              string `json:"verdict"`
	Kind                 string `json:"kind,omitempty"`
	FirstDivergentHeight uint64 `json:"first_divergent_height,omitempty"`
	MinHeight            uint64 `json:"min_height"`
	MaxHeight            uint64 `json:"max_height"`
	Laggards             int    `json:"laggards,omitempty"`
	Branches             int    `json:"branches,omitempty"`
	Deaths               int64  `json:"deaths"`
	PastCut              int    `json:"past_cut"`
	FirstPastCut         string `json:"first_past_cut,omitempty"`
	Committed            int64  `json:"committed"`
	Detail               string `json:"detail,omitempty"`
}

type sweepOut struct {
	Config  map[string]string `json:"config"`
	Results []seedResult      `json:"results"`
	Summary map[string]int    `json:"summary"`
}

func main() {
	seeds := flag.String("seeds", "1-9", "comma list of seeds and `a-b` ranges")
	recipe := flag.String("recipe", "combined", "`combined` or false-death")
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
	if err == nil && *recipe != "combined" && *recipe != "false-death" {
		err = fmt.Errorf("unknown recipe %q", *recipe)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "divergence-sweep: %v\n", err)
		os.Exit(2)
	}
	cfg := massbft.Config{
		Groups:            make([]int, *groups),
		Workload:          *workload,
		Warmup:            time.Second,
		WANDropRate:       *wanDrop,
		LANDropRate:       *lanDrop,
		WANDupRate:        *dup,
		FaultJitter:       *jitter,
		ViewChangeTimeout: 400 * time.Millisecond,
		TakeoverTimeout:   400 * time.Millisecond,
		RepairTimeout:     150 * time.Millisecond,
	}
	for g := range cfg.Groups {
		cfg.Groups[g] = *nodes
		if *recipe == "false-death" {
			cfg.GroupRate = append(cfg.GroupRate, 2000)
		}
	}
	if *recipe == "false-death" {
		*duration, *drain = 20*time.Second, 12*time.Second
	}

	sweep := sweepOut{Config: map[string]string{}, Summary: map[string]int{}}
	flag.VisitAll(func(f *flag.Flag) { sweep.Config[f.Name] = f.Value.String() })
	for _, seed := range seedList {
		cfg.Seed = seed
		r, err := runSeed(cfg, *recipe == "false-death", *duration, *drain)
		if err != nil {
			fmt.Fprintf(os.Stderr, "divergence-sweep: seed %d: %v\n", seed, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "seed %-4d deaths %-3d past-cut %-3d %-7s %s %s\n", seed, r.Deaths, r.PastCut, r.Kind, r.FirstPastCut, r.Detail)
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

func runSeed(cfg massbft.Config, falseDeath bool, duration, drain time.Duration) (seedResult, error) {
	c, err := massbft.NewCluster(cfg)
	if err != nil {
		return seedResult{}, err
	}
	pastCut, firstPastCut := 0, ""
	c.WatchTransitions(func(group, index int, tr massbft.Transition) {
		if (tr.Kind == cluster.TransDead || tr.Kind == cluster.TransDepart) && group != tr.Group && tr.Cursor > tr.At {
			if pastCut++; pastCut == 1 {
				firstPastCut = fmt.Sprintf("N%d,%d applied g%d's %v cut %d at cursor %d", group, index, tr.Group, tr.Kind, tr.At, tr.Cursor)
			}
		}
	})
	if falseDeath {
		for g := range cfg.Groups {
			c.CrashNode(5*time.Second, g, 1)
			c.RecoverNode(10*time.Second, g, 1)
		}
		c.Run(time.Second)
		duration -= time.Second
	}
	res := c.Run(duration)
	rep := c.DrainToAgreement(500*time.Millisecond, drain)
	return seedResult{
		Seed:                 cfg.Seed,
		Verdict:              string(rep.Verdict),
		Kind:                 forkKind(rep),
		FirstDivergentHeight: rep.FirstDivergentHeight,
		MinHeight:            rep.MinHeight,
		MaxHeight:            rep.MaxHeight,
		Laggards:             len(rep.Laggards),
		Branches:             len(rep.Branches),
		Deaths:               c.Counter("group-deaths"),
		PastCut:              pastCut,
		FirstPastCut:         firstPastCut,
		Committed:            res.Committed,
		Detail:               rep.String(),
	}, nil
}

// forkKind names what a forked report's two largest branches disagree on;
// "" for any other verdict.
func forkKind(rep massbft.AgreementReport) string {
	switch {
	case rep.Verdict != massbft.AgreementForked:
		return ""
	case len(rep.Branches) < 2:
		return "execution" // identical ledgers, differing state digests
	case rep.Branches[0].Entry != rep.Branches[1].Entry:
		return "order"
	case rep.Branches[0].EntryDigest != rep.Branches[1].EntryDigest:
		return "payload"
	}
	return "execution"
}

// parseSeeds accepts a comma list of seeds and "a-b" ranges ("1-5,42").
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		a, b, isRange := strings.Cut(strings.TrimSpace(part), "-")
		lo, err := strconv.ParseInt(a, 10, 64)
		hi := lo
		if err == nil && isRange {
			hi, err = strconv.ParseInt(b, 10, 64)
		}
		if err != nil || hi < lo {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
