package simnet

import (
	"testing"
	"time"
)

// TestScaleScenario10kNodes drives a full giant-topology schedule — 50
// regions × 200 nodes = 10,000 nodes on a globe RTT matrix with bandwidth
// tiers, uniform traffic, a flash-crowd burst, and overlapping crash waves —
// and checks the run completes and is bit-for-bit deterministic: the event
// count, delivery count and WAN byte total are the values every run on every
// machine has produced since the scheduler rework (DESIGN.md §12).
func TestScaleScenario10kNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node scenario in -short mode")
	}
	const (
		regions   = 50
		groupSize = 200
		horizon   = 1200 * time.Millisecond
	)
	run := func() (events int, delivered, wanBytes int64) {
		nw := BuildScaleNetwork(regions, groupSize, 42)
		stats := DriveUniformTraffic(nw, 300*time.Millisecond, 4096, 128, horizon)
		ScheduleFlashCrowd(nw, 500*time.Millisecond, 100*time.Millisecond, 1, 1024, 7)
		waves := ScheduleCrashWaves(nw, 400*time.Millisecond, 3, 5, 300*time.Millisecond, 100*time.Millisecond, 11)
		if len(waves) != 3 {
			t.Fatalf("waves = %d", len(waves))
		}
		// Waves 100 ms apart with 300 ms downtime: outages must overlap.
		if waves[1].At >= waves[0].At+waves[0].Down {
			t.Fatalf("crash waves do not overlap: %+v", waves)
		}
		events = nw.Run(horizon + 500*time.Millisecond)
		return events, stats.Delivered, nw.WANBytes(-1)
	}
	ev1, del1, wb1 := run()
	if del1 == 0 || wb1 == 0 {
		t.Fatalf("scenario moved no traffic: delivered=%d wanBytes=%d", del1, wb1)
	}
	// 10k nodes × ~4 rounds × (bulk + ctrl + deliveries) — the schedule must
	// actually be big, or the scale claim is vacuous.
	if ev1 < 100_000 {
		t.Fatalf("only %d events processed — not a scale run", ev1)
	}
	if ev1 != 149845 || del1 != 89874 || wb1 != 173638656 {
		t.Fatalf("10k-node run (%d,%d,%d) != pinned (149845,89874,173638656)", ev1, del1, wb1)
	}
	ev2, del2, wb2 := run()
	if ev1 != ev2 || del1 != del2 || wb1 != wb2 {
		t.Fatalf("10k-node run not deterministic: (%d,%d,%d) vs (%d,%d,%d)", ev1, del1, wb1, ev2, del2, wb2)
	}
}

// TestScaleScenarioWheelMatchesHeap runs a smaller giant-topology schedule on
// both schedulers and requires identical outcomes — the scenario-level
// determinism oracle.
func TestScaleScenarioWheelMatchesHeap(t *testing.T) {
	run := func(legacy bool) (int, int64, int64) {
		topo := GlobeTopology(12, 5).BandwidthTiers(1e9/8, 20e6/8)
		sizes := make([]int, 12)
		for i := range sizes {
			sizes[i] = 8
		}
		nw := New(Config{GroupSizes: sizes, Topology: topo, Seed: 5, Jitter: 0.05})
		if legacy {
			nw.sched = &heapSched{}
		}
		nw.SetFaults(FaultConfig{WANDrop: 0.02, WANDup: 0.02, Jitter: 0.1})
		stats := DriveUniformTraffic(nw, 50*time.Millisecond, 2048, 96, 800*time.Millisecond)
		ScheduleFlashCrowd(nw, 300*time.Millisecond, 50*time.Millisecond, 2, 512, 3)
		ScheduleCrashWaves(nw, 250*time.Millisecond, 2, 3, 200*time.Millisecond, 80*time.Millisecond, 9)
		ev := nw.Run(time.Second)
		return ev, stats.Delivered, nw.WANBytes(-1)
	}
	e1, d1, w1 := run(false)
	e2, d2, w2 := run(true)
	if e1 != e2 || d1 != d2 || w1 != w2 {
		t.Fatalf("wheel (%d,%d,%d) != legacy heap (%d,%d,%d)", e1, d1, w1, e2, d2, w2)
	}
	if e1 != 4828 || d1 != 3067 || w1 != 3052544 {
		t.Fatalf("oracle scenario (%d,%d,%d) != pinned (4828,3067,3052544)", e1, d1, w1)
	}
}

// TestSchedulerDriveChecksums pins the FNV-1a checksum SchedulerDrive folds
// over the popped (at, seq) sequence at three resident populations: a changed
// tie-break or a mis-cascaded slot moves it. The heap is asked only at the
// smallest — TestWheelVsHeapDifferential proves pop-order equivalence.
func TestSchedulerDriveChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("8M single-threaded queue operations in -short mode")
	}
	const ops, seed = 2_000_000, 42
	for _, c := range []struct {
		resident int
		want     uint64
		heap     bool // ask the reference heap too
	}{
		{20_000, 0x941387c761df6f60, true},
		{100_000, 0x7fbb2f06beddf664, false},
		{400_000, 0xa0934761392a0570, false}, // the heap here costs 3 s and adds nothing
	} {
		if got := SchedulerDrive(false, c.resident, ops, seed); got != c.want {
			t.Errorf("wheel, resident %d: checksum %016x, want %016x", c.resident, got, c.want)
		}
		if c.heap {
			if got := SchedulerDrive(true, c.resident, ops, seed); got != c.want {
				t.Errorf("heap, resident %d: checksum %016x, want %016x", c.resident, got, c.want)
			}
		}
	}
}
