package simnet

import (
	"testing"
	"time"

	"massbft/internal/keys"
)

func twoGroups(t *testing.T, cfg Config) *Network {
	t.Helper()
	if cfg.GroupSizes == nil {
		cfg.GroupSizes = []int{2, 2}
	}
	return New(cfg)
}

type recorder struct {
	got []Message
	at  []Time
}

func (r *recorder) HandleMessage(n *Node, msg Message) {
	r.got = append(r.got, msg)
	r.at = append(r.at, n.Now())
}

func TestSendLatencyWANvsLAN(t *testing.T) {
	nw := twoGroups(t, Config{LANLatency: time.Millisecond, WANLatency: func(a, b int) Time { return 20 * time.Millisecond }})
	var lan, wan recorder
	nw.SetHandler(nid(0, 1), &lan)
	nw.SetHandler(nid(1, 0), &wan)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		src.Send(nid(0, 1), "lan", 100)
		src.Send(nid(1, 0), "wan", 100)
	})
	nw.Run(time.Second)
	if len(lan.got) != 1 || len(wan.got) != 1 {
		t.Fatalf("deliveries: lan=%d wan=%d", len(lan.got), len(wan.got))
	}
	if lan.at[0] < time.Millisecond || lan.at[0] > 2*time.Millisecond {
		t.Fatalf("LAN delivery at %v", lan.at[0])
	}
	if wan.at[0] < 20*time.Millisecond || wan.at[0] > 25*time.Millisecond {
		t.Fatalf("WAN delivery at %v", wan.at[0])
	}
}

func TestBandwidthSerializationQueueing(t *testing.T) {
	// 1000 bytes/s uplink: two 500-byte messages take 0.5 s and 1.0 s of
	// serialization respectively before the propagation delay.
	nw := twoGroups(t, Config{WANBandwidth: 1000, WANLatency: func(a, b int) Time { return 0 }})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		src.Send(nid(1, 0), 1, 500)
		src.Send(nid(1, 0), 2, 500)
	})
	nw.Run(10 * time.Second)
	if len(r.got) != 2 {
		t.Fatalf("got %d messages", len(r.got))
	}
	// First message: 0.5s uplink + 0.5s downlink = 1s. Second queues behind
	// it on the uplink: departs at 1.0s, downlink free at 1.0s, arrives 1.5s.
	if r.at[0] < 900*time.Millisecond || r.at[0] > 1100*time.Millisecond {
		t.Fatalf("first delivery at %v, want ~1s", r.at[0])
	}
	if r.at[1] < 1400*time.Millisecond || r.at[1] > 1600*time.Millisecond {
		t.Fatalf("second delivery at %v, want ~1.5s", r.at[1])
	}
}

func TestLeaderUplinkBottleneck(t *testing.T) {
	// One sender fanning out to f+1 receivers serializes on its own uplink;
	// this is the paper's leader-bottleneck effect (§I). Three sends of 1000
	// bytes at 1000 B/s finish serializing at 1,2,3 s.
	nw := New(Config{GroupSizes: []int{1, 3}, WANBandwidth: 1000, WANLatency: func(a, b int) Time { return 0 }})
	var rs [3]recorder
	for i := range rs {
		nw.SetHandler(nid(1, i), &rs[i])
	}
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			src.Send(nid(1, i), i, 1000)
		}
	})
	nw.Run(10 * time.Second)
	last := rs[2].at[0]
	if last < 3900*time.Millisecond || last > 4100*time.Millisecond {
		t.Fatalf("third copy delivered at %v, want ~4s (3s uplink queue + 1s downlink)", last)
	}
}

func TestCrashDropsDeliveryAndTimers(t *testing.T) {
	nw := twoGroups(t, Config{})
	var r recorder
	dst := nid(1, 0)
	nw.SetHandler(dst, &r)
	src := nw.Node(nid(0, 0))
	fired := false
	nw.Schedule(0, func() {
		nw.Node(dst).After(time.Millisecond, func() { fired = true })
		src.Send(dst, "x", 10)
		nw.Crash(dst)
	})
	nw.Run(time.Second)
	if len(r.got) != 0 {
		t.Fatal("crashed node received a message")
	}
	if fired {
		t.Fatal("crashed node's timer fired")
	}
}

func TestCrashGroupAndRecover(t *testing.T) {
	nw := twoGroups(t, Config{})
	var r recorder
	dst := nid(1, 1)
	nw.SetHandler(dst, &r)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() { nw.CrashGroup(1); src.Send(dst, "lost", 10) })
	nw.Schedule(100*time.Millisecond, func() { nw.RecoverGroup(1); src.Send(dst, "ok", 10) })
	nw.Run(time.Second)
	if len(r.got) != 1 || r.got[0].Payload != "ok" {
		t.Fatalf("got %v", r.got)
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	nw := twoGroups(t, Config{})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() { nw.Crash(src.ID); src.Send(nid(1, 0), "x", 10) })
	nw.Run(time.Second)
	if len(r.got) != 0 {
		t.Fatal("crashed sender's message delivered")
	}
}

func TestOutboundFilterTamperAndDrop(t *testing.T) {
	nw := twoGroups(t, Config{})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	nw.SetOutboundFilter(src.ID, func(m *Message) bool {
		if m.Payload == "drop" {
			return false
		}
		m.Payload = "tampered"
		return true
	})
	nw.Schedule(0, func() {
		src.Send(nid(1, 0), "drop", 10)
		src.Send(nid(1, 0), "original", 10)
	})
	nw.Run(time.Second)
	if len(r.got) != 1 || r.got[0].Payload != "tampered" {
		t.Fatalf("got %v", r.got)
	}
}

func TestChargeDefersEvents(t *testing.T) {
	nw := twoGroups(t, Config{})
	n := nw.Node(nid(0, 0))
	var order []int
	nw.Schedule(0, func() {
		n.Charge(50 * time.Millisecond)
		n.After(time.Millisecond, func() { order = append(order, 1) }) // deferred to 50ms
	})
	nw.Schedule(10*time.Millisecond, func() { order = append(order, 0) }) // network event, not deferred
	nw.Run(time.Second)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		nw := New(Config{GroupSizes: []int{3, 3}, Seed: 7, Jitter: 0.1})
		var r recorder
		nw.SetHandler(nid(1, 0), &r)
		for j := 0; j < 3; j++ {
			src := nw.Node(nid(0, j))
			jj := j
			nw.Schedule(Time(jj)*time.Millisecond, func() { src.Send(nid(1, 0), jj, 100+jj) })
		}
		nw.Run(time.Second)
		return r.at
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("deliveries %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestGSTUnstablePeriod(t *testing.T) {
	lat := func(a, b int) Time { return 10 * time.Millisecond }
	nw := New(Config{GroupSizes: []int{1, 1}, WANLatency: lat, GST: 100 * time.Millisecond, UnstableFactor: 10})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() { src.Send(nid(1, 0), "pre", 10) })
	nw.Schedule(200*time.Millisecond, func() { src.Send(nid(1, 0), "post", 10) })
	nw.Run(time.Second)
	if len(r.got) != 2 {
		t.Fatalf("got %d", len(r.got))
	}
	preLat := r.at[0]
	postLat := r.at[1] - 200*time.Millisecond
	if preLat < 95*time.Millisecond {
		t.Fatalf("pre-GST latency %v, want ~100ms (10x)", preLat)
	}
	if postLat > 15*time.Millisecond {
		t.Fatalf("post-GST latency %v, want ~10ms", postLat)
	}
}

func TestWANByteAccounting(t *testing.T) {
	nw := twoGroups(t, Config{})
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		src.Send(nid(1, 0), "wan", 1000)
		src.Send(nid(0, 1), "lan", 500) // LAN must not count
	})
	nw.Run(time.Second)
	if got := nw.WANBytes(0); got != 1000 {
		t.Fatalf("WANBytes(0) = %d, want 1000", got)
	}
	if got := nw.WANBytes(1); got != 0 {
		t.Fatalf("WANBytes(1) = %d, want 0", got)
	}
	if got := nw.NodeWANBytes(nid(0, 0)); got != 1000 {
		t.Fatalf("NodeWANBytes = %d", got)
	}
}

func TestSetNodeBandwidth(t *testing.T) {
	nw := twoGroups(t, Config{WANBandwidth: 1e6, WANLatency: func(a, b int) Time { return 0 }})
	slow := nid(0, 0)
	nw.SetNodeBandwidth(slow, 1000)
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	nw.Schedule(0, func() { nw.Node(slow).Send(nid(1, 0), "x", 1000) })
	nw.Run(10 * time.Second)
	// 1 second uplink serialization at the overridden 1000 B/s.
	if len(r.got) != 1 || r.at[0] < time.Second {
		t.Fatalf("slow node delivered at %v", r.at)
	}
	// A position outside the layout is a caller bug, named as SetHandler
	// names it (twoGroups builds groups of two).
	defer func() {
		if got, want := recover(), "simnet: unknown node N0,2"; got != want {
			t.Fatalf("out-of-layout SetNodeBandwidth: recovered %v, want %q", got, want)
		}
	}()
	nw.SetNodeBandwidth(nid(0, 2), 1000)
}

func TestLoopbackDelivery(t *testing.T) {
	nw := twoGroups(t, Config{})
	var r recorder
	id := nid(0, 0)
	nw.SetHandler(id, &r)
	nw.Schedule(0, func() { nw.Node(id).Send(id, "self", 10) })
	nw.Run(time.Second)
	if len(r.got) != 1 || r.got[0].Payload != "self" {
		t.Fatal("loopback failed")
	}
	if nw.WANBytes(-1) != 0 {
		t.Fatal("loopback charged WAN bytes")
	}
}

func TestScheduleInPast(t *testing.T) {
	nw := twoGroups(t, Config{})
	nw.Run(100 * time.Millisecond)
	ran := false
	nw.Schedule(0, func() { ran = true }) // clamped to now
	nw.Run(200 * time.Millisecond)
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestRunAdvancesClock(t *testing.T) {
	nw := twoGroups(t, Config{})
	nw.Run(time.Second)
	if nw.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", nw.Now())
	}
}

func nid(g, j int) keys.NodeID { return keys.NodeID{Group: g, Index: j} }

func TestPriorityLaneBypassesBulkQueue(t *testing.T) {
	// A big bulk transfer books the uplink for 10 s; a priority control
	// message must not wait behind it.
	nw := New(Config{GroupSizes: []int{1, 1}, WANBandwidth: 1000, WANLatency: func(a, b int) Time { return 0 }})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		src.Send(nid(1, 0), "bulk", 10000)      // 10 s serialization
		src.SendPriority(nid(1, 0), "ctl", 100) // 0.1 s on the priority lane
	})
	nw.Run(30 * time.Second)
	if len(r.got) != 2 {
		t.Fatalf("got %d messages", len(r.got))
	}
	if r.got[0].Payload != "ctl" {
		t.Fatalf("priority message delivered second: %v", r.got)
	}
	if r.at[0] > time.Second {
		t.Fatalf("priority message took %v", r.at[0])
	}
	if r.at[1] < 10*time.Second {
		t.Fatalf("bulk message arrived too early: %v", r.at[1])
	}
}

func TestBacklogs(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1, 1}, WANBandwidth: 1000, WANLatency: func(a, b int) Time { return 0 }})
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() { src.Send(nid(1, 0), "x", 5000) })
	nw.Run(time.Millisecond)
	up, down, lanUp, lanDown := src.Backlogs()
	if up < 4*time.Second {
		t.Fatalf("uplink backlog %v, want ~5s", up)
	}
	if down != 0 || lanUp != 0 || lanDown != 0 {
		t.Fatalf("unexpected backlogs: %v %v %v", down, lanUp, lanDown)
	}
	nw.Run(10 * time.Second)
	if up, _, _, _ := src.Backlogs(); up != 0 {
		t.Fatalf("backlog did not drain: %v", up)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	nw := New(Config{GroupSizes: []int{4, 4}})
	count := 0
	nw.SetHandler(nid(1, 0), HandlerFunc(func(n *Node, m Message) { count++ }))
	src := nw.Node(nid(0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(nid(1, 0), i, 100)
		nw.Run(nw.Now() + time.Millisecond)
	}
}

func TestJitterBoundsLatency(t *testing.T) {
	lat := func(a, b int) Time { return 10 * time.Millisecond }
	nw := New(Config{GroupSizes: []int{1, 1}, WANLatency: lat, Seed: 3, Jitter: 0.2})
	var r recorder
	nw.SetHandler(nid(1, 0), &r)
	src := nw.Node(nid(0, 0))
	for i := 0; i < 50; i++ {
		at := Time(i) * 100 * time.Millisecond
		nw.Schedule(at, func() { src.Send(nid(1, 0), "x", 10) })
	}
	nw.Run(10 * time.Second)
	if len(r.got) != 50 {
		t.Fatalf("delivered %d", len(r.got))
	}
	varied := false
	for i, at := range r.at {
		base := Time(i) * 100 * time.Millisecond
		d := at - base
		if d < 10*time.Millisecond || d > 12*time.Millisecond+time.Millisecond {
			t.Fatalf("latency %v outside [10ms, 12ms]", d)
		}
		if d != 10*time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter had no effect")
	}
}
