// Command bench is the repository's performance ledger: four workloads over
// both fabrics, nine end-to-end metrics, and a per-layer budget taken from a
// traced run. See README.md.
//
//	go run -C bench . -seed 1            every workload, 3 untraced repetitions + 1 traced
//	go run -C bench . -smoke             the same at toy scale (harness check)
//	go run -C bench . -aa > bench/AA.md  A/A: the end-to-end set twice, compared
//	go run -C bench . --workload sim-sat-3x7 --seed 1 --seconds 20 --trace 0
//
// The last form is one run in this process, as BENCHMARK.json's driver
// invokes it; the other forms spawn exactly such runs as child processes,
// so every measurement starts from a clean heap, RSS and set-up.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// repetitions is R: the untraced repetitions whose median is a workload's
// reported end-to-end value.
const repetitions = 3

// Drive lengths: the one command's table, a lone traced run, a smoke run.
const (
	driveFull  = time.Second
	driveLone  = 100 * time.Millisecond
	driveSmoke = 2 * time.Millisecond
)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOpts
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (the driver's form)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "run length: wall seconds on tcp-*, scaled to virtual seconds on sim-*")
	fs.Float64Var(&o.refHostUS, "ref-host-us", 0, "set by the one command on its traced children: the untraced host_us_per_txn to measure tracing overhead against")
	smoke := fs.Bool("smoke", false, "every workload at toy scale, one repetition, to check the harness itself")
	aa := fs.Bool("aa", false, "run the end-to-end set twice on one seed and compare against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	o.trace = *trace == 1
	// One load-generating process sized to the box: two threads at most, so
	// a run means the same thing here and on a larger machine.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}

	var err error
	switch {
	case o.workload != "":
		var correct bool
		if correct, err = runChild(o, stdout); err == nil && !correct {
			return 1
		}
	case *aa:
		err = runAA(o, stdout, stderr)
	case *smoke:
		o.seconds = 1
		err = runFull(o, 1, driveSmoke, stdout, stderr)
	default:
		err = runFull(o, repetitions, driveFull, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func runWorkload(o runOpts) (*result, error) {
	if o.workload == tcpName {
		return runTCP(o)
	}
	for i := range simWorkloads {
		if simWorkloads[i].name == o.workload {
			return simWorkloads[i].run(o)
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", o.workload)
}

// runChild is one run in this process. A lone traced run (the driver's form)
// first measures its own untraced reference in a child process and runs the
// drives; under the one command the parent has done both.
func runChild(o runOpts, stdout io.Writer) (correct bool, err error) {
	var drives []driveResult
	if o.trace && o.refHostUS == 0 {
		// Before anything runs here: the reference gets the machine alone.
		ref := o
		ref.trace = false
		res, err := spawn(ref, io.Discard)
		if err != nil {
			return false, fmt.Errorf("bench: untraced reference run: %w", err)
		}
		o.refHostUS = res.Metrics["host_us_per_txn"].Value
		// The drives go before the workload, on a small heap: after
		// sim-sat-3x7 the collector is pacing a 1.5 GB heap and
		// allocation-heavy drives measure that.
		if drives, err = runDrives(o.seed, driveLone); err != nil {
			return false, err
		}
	}
	r, err := runWorkload(o)
	if err != nil {
		return false, err
	}
	r.e2e["max_rss_mb"] = maxRSSMiB()
	if o.trace {
		r.layer["trace.overhead_share"] = (r.e2e["host_us_per_txn"] - o.refHostUS) / o.refHostUS
		r.notef("tracing overhead: host_us_per_txn %.4g traced vs %.4g untraced", r.e2e["host_us_per_txn"], o.refHostUS)
		for _, d := range drives {
			r.layer[d.name] = d.value
			r.notef("drive %-32s %14.6g  %10.1f allocs/op", d.name, d.value, d.allocs)
		}
	}
	return r.Correct, r.emit(stdout, o.trace)
}

// spawn runs one workload in a fresh child process and returns its result
// object. The child's human-readable lines go to echo.
func spawn(o runOpts, echo io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", trace,
		"--ref-host-us", strconv.FormatFloat(o.refHostUS, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	echo.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Fprintln(echo)
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("bench: %s child: %w", o.workload, runErr)
		}
		return nil, fmt.Errorf("bench: %s child printed no result: %w", o.workload, err)
	}
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return nil, runErr
	}
	return &res, nil
}
