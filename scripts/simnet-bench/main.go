// Command simnet-bench measures the simulator at scale and writes the results
// to a JSON baseline (BENCH_simnet.json at the repo root is the committed
// one). It records two kinds of facts:
//
//   - deterministic: event counts, delivery counts, WAN byte totals, and
//     scheduler checksums that must be bit-identical on every machine and on
//     every run — the wheel scheduler and the legacy heap must agree on all
//     of them. scripts/validate-simnet diffs this section against the
//     committed baseline.
//
//   - timing: scheduler ns/op and full-simulation throughput, measured wheel
//     vs the pre-refactor heap path (container/heap, fresh event + capturing
//     closure per delivery, no pooling). Machine-dependent; validate-simnet
//     only applies CI-safe floors.
//
//     go run ./scripts/simnet-bench -out BENCH_simnet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"massbft/internal/simnet"
)

// Schema identifies the report layout for validate-simnet and CI consumers.
const Schema = "massbft-simnet-bench/v1"

// Scale geometry: 50 regions x 200 nodes = 10,000 emulated nodes, well past
// the paper's 4x7 evaluation envelope. The schedule mirrors
// TestScaleScenario10kNodes: uniform traffic, a flash-crowd burst, three
// overlapping crash waves.
const (
	scaleRegions   = 50
	scaleGroupSize = 200
	scaleSeed      = 42
	horizon        = 1200 * time.Millisecond
	runUntil       = horizon + 500*time.Millisecond
)

// schedOps is the op count for the scheduler microbenchmark; residents are
// the outstanding-event populations measured. 20k matches the pending set of
// the 10k-node schedule; the larger points show the scaling trend.
const schedOps = 2_000_000

var schedResidents = []int{20_000, 100_000, 400_000}

type SchedChecksum struct {
	Resident int    `json:"resident"`
	Checksum string `json:"checksum"`
	Match    bool   `json:"wheel_heap_match"`
}

type Deterministic struct {
	// Oracle scenario: a smaller globe run with faults enabled, executed on
	// both schedulers; counts must match exactly.
	Oracle struct {
		Regions        int   `json:"regions"`
		GroupSize      int   `json:"group_size"`
		Events         int   `json:"events"`
		Delivered      int64 `json:"delivered"`
		WANBytes       int64 `json:"wan_bytes"`
		WheelHeapMatch bool  `json:"wheel_heap_match"`
	} `json:"oracle"`
	// Scale scenario: the full 10k-node schedule (wheel and legacy heap runs
	// must produce identical counts).
	Scale struct {
		Regions        int   `json:"regions"`
		GroupSize      int   `json:"group_size"`
		Events         int   `json:"events"`
		Delivered      int64 `json:"delivered"`
		WANBytes       int64 `json:"wan_bytes"`
		WheelHeapMatch bool  `json:"wheel_heap_match"`
	} `json:"scale"`
	SchedChecksums []SchedChecksum `json:"sched_checksums"`
}

type SchedTiming struct {
	Resident  int     `json:"resident"`
	WheelNsOp float64 `json:"wheel_ns_op"`
	HeapNsOp  float64 `json:"heap_ns_op"`
	Speedup   float64 `json:"speedup"`
}

type Timing struct {
	Sched []SchedTiming `json:"sched"`
	Scale struct {
		Nodes              int     `json:"nodes"`
		WallMs             float64 `json:"wall_ms"`
		EventsPerSec       float64 `json:"events_per_sec"`
		HeapWallMs         float64 `json:"heap_wall_ms"`
		HeapEventsPerSec   float64 `json:"heap_events_per_sec"`
		Speedup            float64 `json:"speedup"`
		AllocsPerEvent     float64 `json:"allocs_per_event"`
		HeapAllocsPerEvent float64 `json:"heap_allocs_per_event"`
	} `json:"scale_10k"`
}

type Report struct {
	Schema        string        `json:"schema"`
	GoArch        string        `json:"goarch"`
	GoOS          string        `json:"goos"`
	NumCPU        int           `json:"num_cpu"`
	Deterministic Deterministic `json:"deterministic"`
	Timing        Timing        `json:"timing"`
}

// driveScale runs the full giant-topology schedule on the selected scheduler
// and returns its deterministic counts plus wall time and allocation rate.
func driveScale(legacy bool) (events int, delivered, wanBytes int64, wall time.Duration, allocsPerEvent float64) {
	topo := simnet.GlobeTopology(scaleRegions, scaleSeed).
		BandwidthTiers(1e9/8, 100e6/8, 20e6/8)
	sizes := make([]int, scaleRegions)
	for i := range sizes {
		sizes[i] = scaleGroupSize
	}
	nw := simnet.New(simnet.Config{
		GroupSizes: sizes, Topology: topo, Seed: scaleSeed,
		Jitter: 0.05, LegacyHeap: legacy,
	})
	stats := simnet.DriveUniformTraffic(nw, 300*time.Millisecond, 4096, 128, horizon)
	simnet.ScheduleFlashCrowd(nw, 500*time.Millisecond, 100*time.Millisecond, 1, 1024, 7)
	simnet.ScheduleCrashWaves(nw, 400*time.Millisecond, 3, 5, 300*time.Millisecond, 100*time.Millisecond, 11)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	events = nw.Run(runUntil)
	wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	if events > 0 {
		allocsPerEvent = float64(ms1.Mallocs-ms0.Mallocs) / float64(events)
	}
	return events, stats.Delivered, nw.WANBytes(-1), wall, allocsPerEvent
}

// driveOracle runs the fault-injected oracle scenario (mirrors
// TestScaleScenarioWheelMatchesHeap).
func driveOracle(legacy bool) (int, int64, int64) {
	topo := simnet.GlobeTopology(12, 5).BandwidthTiers(1e9/8, 20e6/8)
	sizes := make([]int, 12)
	for i := range sizes {
		sizes[i] = 8
	}
	nw := simnet.New(simnet.Config{GroupSizes: sizes, Topology: topo, Seed: 5, Jitter: 0.05, LegacyHeap: legacy})
	nw.SetFaults(simnet.FaultConfig{WANDrop: 0.02, WANDup: 0.02, Jitter: 0.1})
	stats := simnet.DriveUniformTraffic(nw, 50*time.Millisecond, 2048, 96, 800*time.Millisecond)
	simnet.ScheduleFlashCrowd(nw, 300*time.Millisecond, 50*time.Millisecond, 2, 512, 3)
	simnet.ScheduleCrashWaves(nw, 250*time.Millisecond, 2, 3, 200*time.Millisecond, 80*time.Millisecond, 9)
	ev := nw.Run(time.Second)
	return ev, stats.Delivered, nw.WANBytes(-1)
}

func run() *Report {
	rep := &Report{Schema: Schema, GoArch: runtime.GOARCH, GoOS: runtime.GOOS, NumCPU: runtime.NumCPU()}

	// Oracle scenario on both schedulers.
	oe, od, ow := driveOracle(false)
	he, hd, hw := driveOracle(true)
	o := &rep.Deterministic.Oracle
	o.Regions, o.GroupSize = 12, 8
	o.Events, o.Delivered, o.WANBytes = oe, od, ow
	o.WheelHeapMatch = oe == he && od == hd && ow == hw

	// Scheduler microbenchmark: identical op streams through both queues; the
	// checksum over the popped (at, seq) sequence is the determinism oracle.
	for _, resident := range schedResidents {
		start := time.Now()
		wsum := simnet.SchedulerDrive(false, resident, schedOps, 42)
		wheelNs := float64(time.Since(start).Nanoseconds()) / schedOps
		start = time.Now()
		hsum := simnet.SchedulerDrive(true, resident, schedOps, 42)
		heapNs := float64(time.Since(start).Nanoseconds()) / schedOps
		rep.Deterministic.SchedChecksums = append(rep.Deterministic.SchedChecksums, SchedChecksum{
			Resident: resident,
			Checksum: fmt.Sprintf("%016x", wsum),
			Match:    wsum == hsum,
		})
		rep.Timing.Sched = append(rep.Timing.Sched, SchedTiming{
			Resident: resident, WheelNsOp: wheelNs, HeapNsOp: heapNs, Speedup: heapNs / wheelNs,
		})
	}

	// Full 10k-node schedule on both schedulers.
	se, sd, sw, wall, allocs := driveScale(false)
	le, ld, lw, lwall, lallocs := driveScale(true)
	s := &rep.Deterministic.Scale
	s.Regions, s.GroupSize = scaleRegions, scaleGroupSize
	s.Events, s.Delivered, s.WANBytes = se, sd, sw
	s.WheelHeapMatch = se == le && sd == ld && sw == lw
	t := &rep.Timing.Scale
	t.Nodes = scaleRegions * scaleGroupSize
	t.WallMs = float64(wall.Nanoseconds()) / 1e6
	t.HeapWallMs = float64(lwall.Nanoseconds()) / 1e6
	if wall > 0 {
		t.EventsPerSec = float64(se) / wall.Seconds()
	}
	if lwall > 0 {
		t.HeapEventsPerSec = float64(le) / lwall.Seconds()
	}
	if t.HeapEventsPerSec > 0 {
		t.Speedup = t.EventsPerSec / t.HeapEventsPerSec
	}
	t.AllocsPerEvent = allocs
	t.HeapAllocsPerEvent = lallocs
	return rep
}

func main() {
	out := flag.String("out", "BENCH_simnet.json", "output JSON path")
	flag.Parse()
	rep := run()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simnet-bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simnet-bench: %v\n", err)
		os.Exit(1)
	}
	for _, st := range rep.Timing.Sched {
		fmt.Printf("sched resident=%-7d wheel %7.0f ns/op  heap %7.0f ns/op  speedup %5.1fx\n",
			st.Resident, st.WheelNsOp, st.HeapNsOp, st.Speedup)
	}
	t := rep.Timing.Scale
	fmt.Printf("scale 10k nodes: %d events, wheel %.0f ms (%.2fM ev/s, %.2f allocs/ev), heap %.0f ms (%.2fM ev/s, %.2f allocs/ev), speedup %.1fx\n",
		rep.Deterministic.Scale.Events, t.WallMs, t.EventsPerSec/1e6, t.AllocsPerEvent,
		t.HeapWallMs, t.HeapEventsPerSec/1e6, t.HeapAllocsPerEvent, t.Speedup)
	fmt.Printf("oracle match=%v scale match=%v\n",
		rep.Deterministic.Oracle.WheelHeapMatch, rep.Deterministic.Scale.WheelHeapMatch)
	fmt.Printf("wrote %s\n", *out)
}
