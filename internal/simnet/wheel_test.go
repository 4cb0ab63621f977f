package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// TestWheelVsHeapDifferential drives the timer wheel and the legacy binary
// heap with an identical interleaved push/pop workload across many seeds and
// asserts they pop the exact same (at, seq) sequence. Horizons span sub-tick
// deltas up to far beyond the wheel span (overflow heap), plus same-tick
// collisions, cursor-slot wraps, and boundary ties between levels.
func TestWheelVsHeapDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := &timerWheel{}
		h := &heapSched{}
		var seq uint64
		push := func(at Time) {
			w.push(&event{at: at, seq: seq})
			h.push(&event{at: at, seq: seq})
			seq++
		}
		var now Time
		for i := 0; i < 5000; i++ {
			if rng.Intn(3) < 2 || h.len() == 0 {
				var d Time
				switch rng.Intn(7) {
				case 0:
					d = Time(rng.Intn(1000)) // sub-tick
				case 1:
					d = Time(rng.Intn(1 << 20))
				case 2:
					d = Time(rng.Intn(1 << 28))
				case 3:
					d = Time(rng.Intn(1 << 36))
				case 4:
					d = Time(rng.Intn(1 << 44))
				case 5:
					d = Time(rng.Int63n(1 << 52)) // beyond the wheel span
				case 6:
					d = 0 // same-instant
				}
				push(now + d)
			} else {
				ew, eh := w.pop(), h.pop()
				if ew == nil || ew.at != eh.at || ew.seq != eh.seq {
					t.Fatalf("seed %d step %d: wheel %v, heap (%d,%d)", seed, i, ew, eh.at, eh.seq)
				}
				now = ew.at
			}
		}
		for h.len() > 0 {
			ew, eh := w.pop(), h.pop()
			if ew == nil || ew.at != eh.at || ew.seq != eh.seq {
				t.Fatalf("seed %d drain: wheel %v, heap (%d,%d)", seed, ew, eh.at, eh.seq)
			}
		}
		if w.len() != 0 {
			t.Fatalf("seed %d: wheel reports %d leftover events", seed, w.len())
		}
	}
}

// TestWheelFarTimer checks that an event far beyond the wheel span parks in
// the overflow heap and still fires in order against nearer traffic.
func TestWheelFarTimer(t *testing.T) {
	w := &timerWheel{}
	far := Time(200) * time.Hour // > ~78h span
	w.push(&event{at: far, seq: 0})
	w.push(&event{at: time.Millisecond, seq: 1})
	w.push(&event{at: far, seq: 2})
	w.push(&event{at: far + time.Nanosecond, seq: 3})
	wantSeq := []uint64{1, 0, 2, 3}
	for i, want := range wantSeq {
		e := w.pop()
		if e == nil || e.seq != want {
			t.Fatalf("pop %d: got %v, want seq %d", i, e, want)
		}
	}
	if _, ok := w.peek(); ok {
		t.Fatal("wheel should be empty")
	}
}

// TestEventPoolReuse verifies executed events are recycled: a long run
// should keep the free list hot instead of allocating per send.
func TestEventPoolReuse(t *testing.T) {
	nw := New(Config{GroupSizes: []int{2}, Seed: 1})
	got := 0
	nw.SetHandler(nid(0, 0), HandlerFunc(func(n *Node, msg Message) { got++ }))
	nw.SetHandler(nid(0, 1), HandlerFunc(func(n *Node, msg Message) { got++ }))
	n := nw.Node(nid(0, 0))
	var tick func()
	rounds := 0
	tick = func() {
		rounds++
		n.Send(nid(0, 1), rounds, 256)
		if rounds < 1000 {
			n.After(time.Millisecond, tick)
		}
	}
	n.After(0, tick)
	nw.RunAll()
	if got != 1000 {
		t.Fatalf("deliveries = %d, want 1000", got)
	}
	if nw.freeEvents == nil {
		t.Fatal("event pool never populated — freeEvent not wired into the run loop")
	}
	// Allocation check: steady-state event churn should come from the pool.
	allocs := testing.AllocsPerRun(100, func() {
		n.Send(nid(0, 1), 0, 64)
		nw.Run(nw.Now() + 10*time.Millisecond)
	})
	if allocs > 3 { // Message payload boxing etc., but no per-event/per-closure allocs
		t.Fatalf("steady-state allocs per send+run = %.1f, want <= 3", allocs)
	}
}

// TestLegacyHeapMatchesWheel runs the same fingerprint scenarios on both
// schedulers and requires identical digests — the in-tree determinism
// oracle for any future wheel change.
func TestLegacyHeapMatchesWheel(t *testing.T) {
	groups := []int{6, 6, 6}
	run := func(legacy bool) string {
		nw := New(Config{GroupSizes: groups, Seed: 99, Jitter: 0.15, GST: 300 * time.Millisecond, UnstableFactor: 4})
		if legacy {
			nw.sched = &heapSched{} // New schedules nothing: the queue is still empty
		}
		nw.SetFaults(FaultConfig{WANDrop: 0.05, WANDup: 0.05, Jitter: 0.2})
		rec := fpDrive(nw, groups, true)
		nw.Run(1500 * time.Millisecond)
		return rec.finish(nw)
	}
	wheel, heap := run(false), run(true)
	if wheel != heap {
		t.Fatalf("scheduler divergence: wheel %s, legacy heap %s", wheel, heap)
	}
}
