package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"
)

// workloadRun is one workload's outcome in a full-set run: the untraced
// repetitions, their per-metric medians, and the traced repetition.
type workloadRun struct {
	name      string
	reps      []*result
	e2e       map[string]float64 // median of reps
	traced    *result            // nil in -aa runs
	attempted int64
	failed    int64
	correct   bool
}

// medianOf takes the per-metric median across repetitions.
func medianOf(reps []*result, name string) float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = r.Metrics[name].Value
	}
	return median(vals)
}

// add records one untraced repetition.
func (wr *workloadRun) add(res *result) {
	wr.reps = append(wr.reps, res)
	wr.attempted += res.Attempted
	wr.failed += res.Failed
	wr.correct = wr.correct && res.Correct
	for _, d := range endToEnd {
		wr.e2e[d.Name] = medianOf(wr.reps, d.Name)
	}
}

func newWorkloadRun(name string) *workloadRun {
	return &workloadRun{name: name, e2e: map[string]float64{}, correct: true}
}

// runSet runs every workload — reps untraced children, then one traced child
// measured against their median host cost — and then the drives, once, in
// this process. The drives do not depend on the workload, so every traced
// result carries the same drive values. They come last because a child's
// ru_maxrss starts at its parent's peak RSS at fork: this process stays
// small until its last child has run.
func runSet(o runOpts, reps int, drive time.Duration, progress io.Writer) ([]*workloadRun, []driveResult, error) {
	var out []*workloadRun
	for _, wd := range workloadDefs {
		wr := newWorkloadRun(wd.Name)
		co := o
		co.workload, co.trace = wd.Name, false
		for rep := 0; rep < reps; rep++ {
			fmt.Fprintf(progress, "== %s: untraced repetition %d of %d\n", wd.Name, rep+1, reps)
			res, err := spawn(co, progress)
			if err != nil {
				return nil, nil, err
			}
			wr.add(res)
		}
		fmt.Fprintf(progress, "== %s: traced repetition\n", wd.Name)
		co.trace, co.refHostUS = true, wr.e2e["host_us_per_txn"]
		res, err := spawn(co, progress)
		if err != nil {
			return nil, nil, err
		}
		wr.traced = res
		wr.correct = wr.correct && res.Correct
		out = append(out, wr)
	}
	fmt.Fprintf(progress, "== isolated drives, %v each\n", drive)
	drives, err := runDrives(o.seed, drive)
	if err != nil {
		return nil, nil, err
	}
	for _, wr := range out {
		for _, d := range drives {
			v := wr.traced.Metrics[d.name]
			v.Value = d.value
			wr.traced.Metrics[d.name] = v
		}
	}
	return out, drives, nil
}

// setLine is one workload's result object in the one command's output.
type setLine struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	*result
}

// runFull is the one command: every metric by name with its unit, for every
// workload, plus the per-layer table, and a non-zero exit if any run failed
// its correctness gate.
func runFull(o runOpts, reps int, drive time.Duration, stdout, progress io.Writer) error {
	set, drives, err := runSet(o, reps, drive, progress)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "seed %d, %d s runs, median of %d untraced repetitions; per-layer numbers from one traced repetition\n\n", o.seed, o.seconds, reps)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	header := func(first string) {
		fmt.Fprintf(tw, "%s\tunit\t", first)
		for _, wr := range set {
			fmt.Fprintf(tw, "%s\t", wr.name)
		}
		fmt.Fprintln(tw)
	}
	header("end-to-end metric")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
		for _, wr := range set {
			fmt.Fprintf(tw, "%.6g\t", wr.e2e[d.Name])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "ops_attempted\tcount\t")
	for _, wr := range set {
		fmt.Fprintf(tw, "%d\t", wr.attempted)
	}
	fmt.Fprintf(tw, "\nops_failed\tcount\t")
	for _, wr := range set {
		fmt.Fprintf(tw, "%d\t", wr.failed)
	}
	fmt.Fprintf(tw, "\n\n")

	// The layer budget: share x host_us_per_txn is each layer's host cost
	// per transaction; the column sums to host_us_per_txn.
	header("layer cpu budget")
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\tus/txn (share)\t", l)
		for _, wr := range set {
			share := wr.traced.Metrics[l+".cpu_share"].Value
			fmt.Fprintf(tw, "%.3f (%.3f)\t", share*wr.e2e["host_us_per_txn"], share)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	header("per-layer metric")
	isDrive := make(map[string]bool, len(driveMetrics))
	for _, d := range driveMetrics {
		isDrive[d.Name] = true
	}
	for _, d := range perLayer() {
		if strings.HasSuffix(d.Name, ".cpu_share") || isDrive[d.Name] {
			continue // the budget above, the drives below
		}
		fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
		for _, wr := range set {
			fmt.Fprintf(tw, "%.6g\t", wr.traced.Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "\nisolated drive\tunit\t%v each\tallocs/op\t\n", drive)
	for i, d := range driveMetrics {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f\t\n", d.Name, d.Unit, drives[i].value, drives[i].allocs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// The same numbers in the driver's shape, one object per workload and
	// kind.
	fmt.Fprintln(stdout)
	enc := json.NewEncoder(stdout)
	for _, wr := range set {
		e2e := result{Correct: wr.correct, Attempted: wr.attempted, Failed: wr.failed, Metrics: map[string]value{}}
		for _, d := range endToEnd {
			e2e.Metrics[d.Name] = value{wr.e2e[d.Name], d.Unit}
		}
		for _, l := range []setLine{{wr.name, 0, &e2e}, {wr.name, 1, wr.traced}} {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	for _, wr := range set {
		if !wr.correct {
			return fmt.Errorf("bench: %s failed its correctness gate", wr.name)
		}
	}
	return nil
}

// exactOnSim are the metrics a simulated run reproduces bit for bit from
// its seed: they are read off the virtual clock and the simulator's byte
// counters, never off the host.
var exactOnSim = map[string]bool{
	"commit_tps": true, "commit_p50_ms": true, "commit_p99_ms": true, "net_bytes_per_txn": true,
}

// worseBy is how much worse b is than a, as a share of a (negative when b
// is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the end-to-end set twice with one binary and one seed and
// prints, as Markdown, both medians of every metric x workload and their
// gap against the metric's bound. Any gap beyond its bound, or any
// difference at all in a metric that must repeat exactly, is an error. The
// two sets' repetitions alternate (A B, B A, A B, ...), so that a slow
// minute on a shared box lands on both sides.
func runAA(o runOpts, stdout, progress io.Writer) error {
	var sets [2][]*workloadRun
	for _, wd := range workloadDefs {
		pair := [2]*workloadRun{newWorkloadRun(wd.Name), newWorkloadRun(wd.Name)}
		co := o
		co.workload, co.trace = wd.Name, false
		for rep := 0; rep < repetitions; rep++ {
			for k := 0; k < 2; k++ {
				side := (rep + k) % 2
				fmt.Fprintf(progress, "== %s: set %c, repetition %d of %d\n", wd.Name, 'A'+side, rep+1, repetitions)
				res, err := spawn(co, progress)
				if err != nil {
					return err
				}
				pair[side].add(res)
			}
		}
		sets[0], sets[1] = append(sets[0], pair[0]), append(sets[1], pair[1])
	}
	fmt.Fprintf(stdout, "# A/A check\n\n")
	fmt.Fprintf(stdout, "`go run -C bench . -aa -seed %d`: the end-to-end set run twice, same binary, same seed, %d s runs, repetitions of the two sets alternating. ", o.seed, o.seconds)
	fmt.Fprintf(stdout, "Each cell is the median of %d untraced repetitions; *gap* is how much worse set B is than set A as a share of A ", repetitions)
	fmt.Fprintf(stdout, "(negative: better). Simulated `commit_*` and `net_bytes_per_txn` must be equal, not merely within bound.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | unit | set A | set B | gap | bound | verdict |\n|---|---|---|---:|---:|---:|---:|---|\n")
	var bad []string
	for w := range sets[0] {
		a, b := sets[0][w], sets[1][w]
		for _, d := range endToEnd {
			va, vb := a.e2e[d.Name], b.e2e[d.Name]
			gap := worseBy(d, va, vb)
			verdict := "ok"
			switch {
			case exactOnSim[d.Name] && strings.HasPrefix(a.name, "sim-"):
				if va != vb {
					verdict = "NOT EQUAL"
				} else {
					verdict = "equal"
				}
			case gap > d.Bound || math.IsNaN(gap):
				verdict = "BEYOND BOUND"
			}
			if verdict != "ok" && verdict != "equal" {
				bad = append(bad, a.name+"/"+d.Name)
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %s |\n",
				a.name, d.Name, d.Unit, va, vb, 100*gap, 100*d.Bound, verdict)
		}
		fmt.Fprintf(stdout, "| %s | ops failed / attempted | count | %d / %d | %d / %d | | | %s |\n",
			a.name, a.failed, a.attempted, b.failed, b.attempted, map[bool]string{true: "ok", false: "GATE FAILED"}[a.correct && b.correct])
		if !a.correct || !b.correct {
			bad = append(bad, a.name+"/gate")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: A/A check failed: %s", strings.Join(bad, ", "))
	}
	return nil
}
