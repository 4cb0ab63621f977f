package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"
)

// runOpts are one run's inputs: the driver's four arguments plus the one the
// full-set harness passes to its traced children.
type runOpts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// refHostUS is the untraced host_us_per_txn the tracing overhead is
	// measured against. 0 marks a lone traced run, which measures its own
	// reference in an untraced child first and runs the drives itself.
	refHostUS float64
}

// result is one run's outcome; its JSON form is the benchmark's last line
// of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// notes are human-readable lines printed above the metrics: sample
	// counts, the agreement verdict, why a gate failed.
	notes []string
	// layer holds the per-layer numbers of this run (all of them on a
	// traced run, the counts alone otherwise).
	layer map[string]float64
	e2e   map[string]float64
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks every attempted operation failed and records why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.notef("GATE FAILED: "+format, args...)
}

// window measures a workload's measured window on the host: CPU time,
// allocation counters and wall clock, and on a traced run the CPU profile
// and the allocation-profile delta. A window may be made of several
// begin/finish segments (tcp-gw-2x3 measures on several deployments); the
// totals and the profile samples accumulate across them.
type window struct {
	trace bool

	wallTotal, cpu time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	cpuSamples     []stackSample
	allocSamples   []stackSample

	// The open segment.
	start       hostSnap
	cpuProf     bytes.Buffer
	allocBefore allocSnapshot
}

func (w *window) begin() error {
	if w.trace {
		runtime.GC()
		w.allocBefore = snapshotAllocs()
		w.cpuProf.Reset()
		if err := pprof.StartCPUProfile(&w.cpuProf); err != nil {
			return fmt.Errorf("bench: cpu profile: %w", err)
		}
	}
	w.start = snapHost()
	return nil
}

func (w *window) finish() error {
	end := snapHost()
	w.wallTotal += end.wall.Sub(w.start.wall)
	w.cpu += end.cpu - w.start.cpu
	w.mallocs += end.mallocs - w.start.mallocs
	w.bytes += end.bytes - w.start.bytes
	w.gcCycles += end.numGC - w.start.numGC
	if !w.trace {
		return nil
	}
	pprof.StopCPUProfile()
	cpu, err := decodeCPUProfile(w.cpuProf.Bytes())
	if err != nil {
		return err
	}
	w.cpuSamples = append(w.cpuSamples, cpu...)
	runtime.GC()
	w.allocSamples = append(w.allocSamples, allocSamples(w.allocBefore, snapshotAllocs())...)
	return nil
}

// hostMetrics fills the three host-side per-transaction metrics, and on a
// traced run the two layer-share columns.
func (w *window) hostMetrics(r *result, committed int64) {
	n := float64(committed)
	r.e2e["host_us_per_txn"] = float64(w.cpu.Microseconds()) / n
	r.e2e["allocs_per_txn"] = float64(w.mallocs) / n
	r.e2e["alloc_kb_per_txn"] = float64(w.bytes) / 1024 / n
	r.layer["runtime.gc_cycles"] = float64(w.gcCycles)
	if !w.trace {
		return
	}
	for l, s := range foldShares(w.cpuSamples) {
		r.layer[l+".cpu_share"] = s
	}
	for l, s := range foldShares(w.allocSamples) {
		r.layer[l+".alloc_share"] = s
	}
}

// emit prints the run: notes, then every metric of the requested kind by
// name with its unit, then the result object as the last line.
func (r *result) emit(out io.Writer, trace bool) error {
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer(), r.layer
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		r.Metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// newResult returns a passing result with every per-layer metric present
// (zero), so a workload only fills in what it exercises.
func newResult() *result {
	r := &result{Correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, d := range perLayer() {
		r.layer[d.Name] = 0
	}
	return r
}
