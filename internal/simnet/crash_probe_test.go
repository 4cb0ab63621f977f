package simnet

import (
	"testing"
	"time"

	"massbft/internal/transport"
)

// TestCrashResetsLaneAndCPUState is the regression test for the crash-state
// bugfix: a recovered machine must come back with empty NIC queues and an
// idle CPU. Before the fix, Crash left busyUntil and the four interface lane
// bookings intact, so a node that crashed under heavy inbound load (downlink
// booked seconds ahead, CPU debt from Charge) resumed that debt on recovery
// and delivered its first post-recovery message seconds late.
//
// The test measures the delivery latency of one probe message sent right
// after recovery in two worlds — one where the victim crashed while
// saturated, one where it was never touched — and requires them identical.
func TestCrashResetsLaneAndCPUState(t *testing.T) {
	const (
		bw        = 1e5 // 100 kB/s WAN: 50 kB messages take 0.5 s to serialize
		loadMsgs  = 24
		loadSize  = 50_000
		probeSize = 1_000
	)
	victim := nid(1, 0)
	run := func(load bool) Time {
		nw := New(Config{GroupSizes: []int{2, 1}, Seed: 7, Topology: NewTopology(2).BandwidthTiers(bw)})
		var probeArrive Time
		nw.SetHandler(victim, transport.HandlerFunc(func(msg transport.Message) {
			if msg.Size == probeSize {
				probeArrive = nw.Now()
			}
		}))
		loader, prober := nw.Node(nid(0, 0)), nw.Node(nid(0, 1))
		if load {
			// Book the victim's downlink many seconds ahead (12 s of bulk at
			// 100 kB/s)...
			nw.Schedule(0, func() {
				for i := 0; i < loadMsgs; i++ {
					loader.Send(victim, i, loadSize)
				}
			})
			// ...pile up CPU debt reaching far past the probe time...
			nw.Schedule(700*time.Millisecond, func() { nw.Node(victim).Charge(10 * time.Second) })
			// ...crash it, keep throwing traffic at it while dark...
			nw.Schedule(800*time.Millisecond, func() { nw.Crash(victim) })
			nw.Schedule(900*time.Millisecond, func() {
				loader.Send(victim, "dark", loadSize)
			})
			// ...and recover it. Without the crash-state reset the probe below
			// would queue behind ~5 s of stale downlink bookings and ~3.6 s of
			// stale CPU debt.
			nw.Schedule(7*time.Second, func() { nw.Recover(victim) })
		}
		sendAt := 7100 * time.Millisecond
		nw.Schedule(sendAt, func() { prober.Send(victim, "probe", probeSize) })
		nw.Run(30 * time.Second)
		if probeArrive == 0 {
			t.Fatalf("load=%v: probe never delivered", load)
		}
		return probeArrive - sendAt
	}
	loaded, idle := run(true), run(false)
	if loaded != idle {
		t.Fatalf("post-recovery delivery latency depends on crash-era load: loaded %v, idle %v", loaded, idle)
	}
	// And the crash-era traffic must have been dropped at the sender, not
	// booked onto the dark node's downlink.
	nw := New(Config{GroupSizes: []int{2, 1}, Seed: 7, Topology: NewTopology(2).BandwidthTiers(bw)})
	nw.Crash(victim)
	nw.Schedule(0, func() { nw.Node(nid(0, 0)).Send(victim, 0, loadSize) })
	nw.Run(time.Second)
	if got := nw.CrashDropped(); got != 1 {
		t.Fatalf("CrashDropped = %d, want 1", got)
	}
	if got := nw.Node(victim).wanDown.bytes; got != 0 {
		t.Fatalf("crashed node's downlink was charged %d bytes", got)
	}
}

// TestProbeLoopbackSample pins the SendProbe contract for loopback sends:
// every delivered copy is probed, a self-send involves no NIC (Depart equals
// Enqueue), and the copy lands after the fixed loopback delay.
func TestProbeLoopbackSample(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1}, Seed: 3})
	var samples []ProbeSample
	nw.SetSendProbe(func(s ProbeSample) { samples = append(samples, s) })
	delivered := 0
	nw.SetHandler(nid(0, 0), transport.HandlerFunc(func(transport.Message) { delivered++ }))
	n := nw.Node(nid(0, 0))
	nw.Schedule(time.Millisecond, func() { n.SendPriority(n.ID, "self", 64) })
	nw.RunAll()
	if delivered != 1 || len(samples) != 1 {
		t.Fatalf("delivered=%d samples=%d, want 1/1", delivered, len(samples))
	}
	s := samples[0]
	if !s.Loopback || s.Duplicate || s.WAN {
		t.Fatalf("loopback sample flags wrong: %+v", s)
	}
	if !s.Priority || s.From != n.ID || s.To != n.ID || s.Size != 64 {
		t.Fatalf("loopback sample fields wrong: %+v", s)
	}
	if s.Depart != s.Enqueue {
		t.Fatalf("loopback touched a NIC: enqueue %v, depart %v", s.Enqueue, s.Depart)
	}
	if s.Arrive != s.Enqueue+time.Microsecond {
		t.Fatalf("loopback arrive = %v, want enqueue+1µs", s.Arrive)
	}
}

// TestProbeDuplicateSample pins the SendProbe contract for fault-layer
// duplication: the duplicate copy is a delivery of its own and gets a second
// sample, flagged Duplicate, with that copy's own (later) arrival time.
func TestProbeDuplicateSample(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1, 1}, Seed: 5})
	nw.SetFaults(FaultConfig{WANDup: 1.0, DupDelay: 30 * time.Millisecond})
	var samples []ProbeSample
	nw.SetSendProbe(func(s ProbeSample) { samples = append(samples, s) })
	delivered := 0
	nw.SetHandler(nid(1, 0), transport.HandlerFunc(func(transport.Message) { delivered++ }))
	nw.Schedule(0, func() { nw.Node(nid(0, 0)).Send(nid(1, 0), "x", 512) })
	nw.RunAll()
	if delivered != 2 || len(samples) != 2 {
		t.Fatalf("delivered=%d samples=%d, want 2/2 (original + duplicate)", delivered, len(samples))
	}
	orig, dup := samples[0], samples[1]
	if orig.Duplicate || !dup.Duplicate {
		t.Fatalf("duplicate flags wrong: orig %+v, dup %+v", orig, dup)
	}
	if !orig.WAN || !dup.WAN || orig.Loopback || dup.Loopback {
		t.Fatalf("lane flags wrong: orig %+v, dup %+v", orig, dup)
	}
	if dup.Enqueue != orig.Enqueue || dup.Depart != orig.Depart {
		t.Fatalf("duplicate must share the original's enqueue/depart: orig %+v, dup %+v", orig, dup)
	}
	if dup.Arrive <= orig.Arrive {
		t.Fatalf("duplicate arrive %v not after original %v", dup.Arrive, orig.Arrive)
	}
	// Probes are passive: the probed run's delivery schedule must be
	// bit-identical to an unprobed one.
	unprobed := New(Config{GroupSizes: []int{1, 1}, Seed: 5})
	unprobed.SetFaults(FaultConfig{WANDup: 1.0, DupDelay: 30 * time.Millisecond})
	var arrives []Time
	unprobed.SetHandler(nid(1, 0), transport.HandlerFunc(func(transport.Message) { arrives = append(arrives, unprobed.Now()) }))
	unprobed.Schedule(0, func() { unprobed.Node(nid(0, 0)).Send(nid(1, 0), "x", 512) })
	unprobed.RunAll()
	if len(arrives) != 2 || arrives[0] != orig.Arrive || arrives[1] != dup.Arrive {
		t.Fatalf("probe perturbed the run: probed arrivals (%v, %v), unprobed %v", orig.Arrive, dup.Arrive, arrives)
	}
}
