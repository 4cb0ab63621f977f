package simnet

import (
	"math"
	"testing"
	"time"

	"massbft/internal/transport"
)

// TestFaultDropRate sends n messages over one WAN link, two latencies apart
// so that no copy waits behind another on the receiver's downlink, and holds
// each decision's rate within six standard deviations of its binomial mean:
// drops over every message, duplicates over the survivors, and jitter past
// half its maximum over the deliveries.
func TestFaultDropRate(t *testing.T) {
	const base, gap = 10 * time.Millisecond, 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		fc   FaultConfig
		n    int
	}{
		{"drop-half", FaultConfig{WANDrop: 0.5}, 400},
		{"one-link-10k", FaultConfig{WANDrop: 0.1, WANDup: 0.05, Jitter: 0.5}, 10_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(Config{GroupSizes: []int{1, 1}, Topology: wanAt(2, base), Seed: 11})
			nw.SetFaults(tc.fc)
			arrivals := make([][]Time, tc.n)
			nw.SetHandler(nid(1, 0), transport.HandlerFunc(func(m transport.Message) {
				i := m.Payload.(int)
				arrivals[i] = append(arrivals[i], nw.Now())
			}))
			src := nw.Node(nid(0, 0))
			for i := 0; i < tc.n; i++ {
				i := i
				nw.Schedule(Time(i)*gap, func() { src.Send(nid(1, 0), i, 10) })
			}
			nw.Run(Time(tc.n)*gap + time.Second)
			var dropped, duplicated, delivered, stretched int
			for i, at := range arrivals {
				if len(at) == 0 {
					dropped++
					continue
				}
				delivered++
				if len(at) == 2 {
					duplicated++
				}
				if at[0]-Time(i)*gap-base > Time(tc.fc.Jitter/2*float64(base)) {
					stretched++
				}
			}
			if d, dup, _ := nw.FaultStats(); int(d) != dropped || int(dup) != duplicated {
				t.Fatalf("counters dropped=%d duplicated=%d, receiver saw %d and %d", d, dup, dropped, duplicated)
			}
			within := func(what string, got, trials int, p float64) {
				mean := float64(trials) * p
				if sd := math.Sqrt(mean * (1 - p)); math.Abs(float64(got)-mean) > 6*sd {
					t.Errorf("%s %d of %d, want %.0f ± %.0f", what, got, trials, mean, 6*sd)
				}
			}
			within("dropped", dropped, tc.n, tc.fc.WANDrop)
			within("duplicated", duplicated, delivered, tc.fc.WANDup)
			if tc.fc.Jitter > 0 {
				within("stretched past half the jitter", stretched, delivered, 0.5)
			}
		})
	}
}

// TestLinkDecisionsAreItsOwn runs a watched WAN link, (0,0)→(1,0), beside
// traffic on other links, twice. The second run adds sends on other links and
// swaps the order of same-instant sends to other receivers. Every watched
// message must meet the same fate in both — dropped, duplicated, and the
// arrival time of each copy — because its draws are keyed by its link and
// its ordinal on that link alone. The other traffic shares no NIC lane with
// the watched link ((0,0)'s other sends leave over its LAN uplink), so only
// a draw shared across links could move it.
func TestLinkDecisionsAreItsOwn(t *testing.T) {
	run := func(perturb bool) [][]Time {
		nw := New(Config{GroupSizes: []int{2, 2, 1}, Seed: 31})
		nw.SetFaults(FaultConfig{WANDrop: 0.2, WANDup: 0.1, LANDrop: 0.1, Jitter: 0.5})
		const n = 500
		watched := make([][]Time, n)
		nw.SetHandler(nid(1, 0), transport.HandlerFunc(func(m transport.Message) {
			i := m.Payload.(int)
			watched[i] = append(watched[i], nw.Now())
		}))
		a, b, c := nw.Node(nid(0, 0)), nw.Node(nid(0, 1)), nw.Node(nid(2, 0))
		for i := 0; i < n; i++ {
			i := i
			nw.Schedule(Time(i)*time.Millisecond, func() {
				sends := []func(){
					func() { a.Send(nid(0, 1), i, 10) },
					func() { b.Send(nid(1, 1), i, 10) },
					func() { b.Send(nid(2, 0), i, 10) },
					func() { c.Send(nid(1, 1), i, 10) },
				}
				if perturb {
					for j := len(sends) - 1; j >= 0; j-- {
						sends[j]()
					}
					if i%3 == 0 {
						b.Send(nid(2, 0), -i, 10)
						c.Send(nid(0, 1), -i, 10)
					}
					a.Send(nid(1, 0), i, 10)
					return
				}
				a.Send(nid(1, 0), i, 10)
				for _, send := range sends {
					send()
				}
			})
		}
		nw.Run(time.Second)
		return watched
	}
	base, perturbed := run(false), run(true)
	var dropped, duplicated int
	for i := range base {
		if len(base[i]) != len(perturbed[i]) {
			t.Fatalf("message %d: %d copies, %d with other links perturbed", i, len(base[i]), len(perturbed[i]))
		}
		for k := range base[i] {
			if base[i][k] != perturbed[i][k] {
				t.Fatalf("message %d copy %d: arrived at %v, at %v with other links perturbed", i, k, base[i][k], perturbed[i][k])
			}
		}
		switch len(base[i]) {
		case 0:
			dropped++
		case 2:
			duplicated++
		}
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("watched link: %d dropped, %d duplicated; the faults did not engage", dropped, duplicated)
	}
}

func TestFaultDuplicate(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1, 1}, Seed: 5})
	nw.SetFaults(FaultConfig{WANDup: 1.0})
	var r recorder
	nw.SetHandler(nid(1, 0), r.on(nw))
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() { src.Send(nid(1, 0), "x", 10) })
	nw.Run(time.Second)
	if len(r.got) != 2 {
		t.Fatalf("got %d deliveries, want 2 (original + duplicate)", len(r.got))
	}
	if r.at[1] <= r.at[0] {
		t.Fatalf("duplicate at %v not after original at %v", r.at[1], r.at[0])
	}
	if _, dup, _ := nw.FaultStats(); dup != 1 {
		t.Fatalf("duplicated = %d, want 1", dup)
	}
}

func TestFaultLANDropOnlyAffectsLAN(t *testing.T) {
	nw := New(Config{GroupSizes: []int{2, 1}, Seed: 9})
	nw.SetFaults(FaultConfig{LANDrop: 1.0})
	var lan, wan recorder
	nw.SetHandler(nid(0, 1), lan.on(nw))
	nw.SetHandler(nid(1, 0), wan.on(nw))
	src := nw.Node(nid(0, 0))
	nw.Schedule(0, func() {
		src.Send(nid(0, 1), "lan", 10)
		src.Send(nid(1, 0), "wan", 10)
	})
	nw.Run(time.Second)
	if len(lan.got) != 0 {
		t.Fatal("LAN message survived 100% LAN loss")
	}
	if len(wan.got) != 1 {
		t.Fatal("WAN message was dropped by LAN loss knob")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1, 1, 1}})
	var r1, r2 recorder
	nw.SetHandler(nid(1, 0), r1.on(nw))
	nw.SetHandler(nid(2, 0), r2.on(nw))
	src := nw.Node(nid(0, 0))
	nw.SchedulePartition(0, 100*time.Millisecond, 0, 1)
	nw.Schedule(10*time.Millisecond, func() {
		if !nw.Partitioned(0, 1) || !nw.Partitioned(1, 0) {
			t.Error("partition not symmetric")
		}
		src.Send(nid(1, 0), "lost", 10)      // severed
		src.Send(nid(2, 0), "unrelated", 10) // 0<->2 unaffected
	})
	nw.Schedule(200*time.Millisecond, func() {
		if nw.Partitioned(0, 1) {
			t.Error("partition did not heal")
		}
		src.Send(nid(1, 0), "after-heal", 10)
	})
	nw.Run(time.Second)
	if len(r1.got) != 1 || r1.got[0].Payload != "after-heal" {
		t.Fatalf("group 1 got %v", r1.got)
	}
	if len(r2.got) != 1 {
		t.Fatalf("group 2 got %d messages, want 1", len(r2.got))
	}
	if _, _, pd := nw.FaultStats(); pd != 1 {
		t.Fatalf("partitionDropped = %d, want 1", pd)
	}
}

func TestFaultJitterStretchesLatency(t *testing.T) {
	nw := New(Config{GroupSizes: []int{1, 1}, Topology: wanAt(2, 10*time.Millisecond), Seed: 4})
	nw.SetFaults(FaultConfig{Jitter: 1.0})
	var r recorder
	nw.SetHandler(nid(1, 0), r.on(nw))
	src := nw.Node(nid(0, 0))
	for i := 0; i < 30; i++ {
		at := Time(i) * 100 * time.Millisecond
		nw.Schedule(at, func() { src.Send(nid(1, 0), "x", 10) })
	}
	nw.Run(10 * time.Second)
	stretched := false
	for i, at := range r.at {
		d := at - Time(i)*100*time.Millisecond
		if d < 10*time.Millisecond || d > 21*time.Millisecond {
			t.Fatalf("latency %v outside [10ms, 20ms]", d)
		}
		if d > 12*time.Millisecond {
			stretched = true
		}
	}
	if !stretched {
		t.Fatal("fault jitter had no visible effect")
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() ([]Time, int64) {
		nw := New(Config{GroupSizes: []int{2, 2}, Seed: 7})
		nw.SetFaults(FaultConfig{WANDrop: 0.3, WANDup: 0.2, Jitter: 0.5})
		var r recorder
		nw.SetHandler(nid(1, 0), r.on(nw))
		src := nw.Node(nid(0, 0))
		for i := 0; i < 100; i++ {
			at := Time(i) * time.Millisecond
			nw.Schedule(at, func() { src.Send(nid(1, 0), "x", 50) })
		}
		nw.Run(time.Second)
		dropped, _, _ := nw.FaultStats()
		return r.at, dropped
	}
	a, ad := run()
	b, bd := run()
	if ad != bd || len(a) != len(b) {
		t.Fatalf("same seed: dropped %d/%d, delivered %d/%d", ad, bd, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different delivery schedule")
		}
	}
	if ad == 0 {
		t.Fatal("no drops at 30% loss over 100 sends")
	}
}

// TestLossDoesNotPerturbJitter: a message's jitter is a draw of its own, so a
// run with loss added delivers every surviving message at the time the
// loss-free run did.
func TestLossDoesNotPerturbJitter(t *testing.T) {
	deliveryTimes := func(fc FaultConfig) map[int]Time {
		nw := New(Config{GroupSizes: []int{1, 1}, Seed: 21})
		nw.SetFaults(fc)
		got := map[int]Time{}
		nw.SetHandler(nid(1, 0), transport.HandlerFunc(func(m transport.Message) {
			got[m.Payload.(int)] = nw.Now()
		}))
		src := nw.Node(nid(0, 0))
		for i := 0; i < 50; i++ {
			i := i
			at := Time(i) * 100 * time.Millisecond // spaced out: no queueing
			nw.Schedule(at, func() { src.Send(nid(1, 0), i, 10) })
		}
		nw.Run(10 * time.Second)
		return got
	}
	clean := deliveryTimes(FaultConfig{Jitter: 0.1})
	faulty := deliveryTimes(FaultConfig{Jitter: 0.1, WANDrop: 0.5})
	if len(faulty) == 0 || len(faulty) == len(clean) {
		t.Fatalf("faulty run delivered %d of %d", len(faulty), len(clean))
	}
	for i, at := range faulty {
		if clean[i] != at {
			t.Fatalf("message %d: faulty run delivered at %v, clean at %v", i, at, clean[i])
		}
	}
}

// TestByzantineSenderCorruptsAndEquivocates exercises the wire-level
// Byzantine sender in isolation: node (0,0) broadcasts the same payload
// pointer to two receivers while half its outgoing copies are tampered.
// Both counters must fire — corrupted (a copy left altered) and equivocated
// (the same broadcast left in differing versions for different peers) — and
// receivers must observe a mix of honest and tampered payloads. Each
// decision is a draw keyed by the seed, so a rerun reproduces identical
// counts.
func TestByzantineSenderCorruptsAndEquivocates(t *testing.T) {
	run := func() (corrupted, equivocated int64, tampered, honest int) {
		nw := New(Config{GroupSizes: []int{1, 2}, Seed: 23})
		nw.SetByzantineSender(nid(0, 0), ByzantineSender{
			CorruptRate: 0.5,
			Corrupt: func(p any, _ uint64) any {
				v, ok := p.(*[2]int)
				if !ok {
					return nil
				}
				return &[2]int{v[0], v[1] + 1000}
			},
		})
		var r0, r1 recorder
		nw.SetHandler(nid(1, 0), r0.on(nw))
		nw.SetHandler(nid(1, 1), r1.on(nw))
		src := nw.Node(nid(0, 0))
		const rounds = 200
		for i := 0; i < rounds; i++ {
			p := &[2]int{i, 0}
			at := Time(i) * time.Millisecond
			nw.Schedule(at, func() {
				src.Send(nid(1, 0), p, 10)
				src.Send(nid(1, 1), p, 10)
			})
		}
		nw.Run(time.Second)
		corrupted, equivocated = nw.ByzantineStats()
		for _, r := range []*recorder{&r0, &r1} {
			for _, m := range r.got {
				if m.Payload.(*[2]int)[1] >= 1000 {
					tampered++
				} else {
					honest++
				}
			}
		}
		return
	}
	corrupted, equivocated, tampered, honest := run()
	if corrupted == 0 {
		t.Fatal("corrupted counter never fired at 50% rate")
	}
	if equivocated == 0 {
		t.Fatal("equivocated counter never fired: same-pointer broadcast copies should diverge")
	}
	if tampered == 0 || honest == 0 {
		t.Fatalf("receivers saw tampered=%d honest=%d, want a mix", tampered, honest)
	}
	if int64(tampered) != corrupted {
		t.Fatalf("receivers saw %d tampered payloads, sender counted %d", tampered, corrupted)
	}
	c2, e2, t2, h2 := run()
	if c2 != corrupted || e2 != equivocated || t2 != tampered || h2 != honest {
		t.Fatalf("seeded corruption not reproducible: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			corrupted, equivocated, tampered, honest, c2, e2, t2, h2)
	}
}
