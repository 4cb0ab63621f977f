package simnet

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// The constants below are scheduler fingerprints captured BEFORE the timer-
// wheel re-architecture, while the event queue was still the original
// container/heap binary heap with per-send closures and the map-backed node
// table. Any (at, seq)-ordered scheduler must reproduce the exact same
// delivery stream: these pins are the simnet-level counterpart of the
// cluster-level TestTransportSeamBitIdentical.
//
// If one drifts after an intentional semantic change to the *network model*
// (not the scheduler), re-capture it in the same change and say why. All
// three were re-captured when the fault decisions became per-link draws (the
// jitter of all three is a fault draw). The
// scenarios deliberately avoid node crashes: crash NIC/CPU-state semantics
// were themselves a bugfix in the same PR that introduced the wheel.
const (
	fpDenseTraffic = "913a8ebc3cf5f02e"
	fpFaultyWAN    = "3d56354b82f7c5e4"
	fpChargeHeavy  = "22d884cc2cc4f2a0"
)

// fpRecorder folds every delivery into an order-sensitive FNV-1a stream.
type fpRecorder struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	deliveries int64
}

func newFPRecorder() *fpRecorder { return &fpRecorder{h: fnv.New64a()} }

func (r *fpRecorder) HandleMessage(n *Node, msg Message) {
	r.deliveries++
	pay, _ := msg.Payload.(int)
	fmt.Fprintf(r.h, "%d|%d.%d>%d.%d|%d|%d;",
		n.Now().Nanoseconds(), msg.From.Group, msg.From.Index,
		msg.To.Group, msg.To.Index, msg.Size, pay)
}

func (r *fpRecorder) finish(nw *Network) string {
	dropped, dup, pd := nw.FaultStats()
	fmt.Fprintf(r.h, "deliv=%d wan=%d drop=%d dup=%d pd=%d", r.deliveries, nw.WANBytes(-1), dropped, dup, pd)
	return fmt.Sprintf("%016x", r.h.Sum64())
}

// fpDrive wires a deterministic synthetic protocol onto every node: a
// periodic per-node timer that sends bulk data to a rotating WAN peer, a
// priority control message to a LAN peer, and an occasional loopback, with
// per-node phase offsets so the queue holds events across many ticks.
func fpDrive(nw *Network, groups []int, charge bool) *fpRecorder {
	rec := newFPRecorder()
	for g := range groups {
		for j := 0; j < groups[g]; j++ {
			nw.SetHandler(nid(g, j), rec)
		}
	}
	for g := range groups {
		for j := 0; j < groups[g]; j++ {
			g, j := g, j
			n := nw.Node(nid(g, j))
			period := time.Duration(2+(g*7+j*3)%9) * time.Millisecond
			var tick func()
			round := 0
			tick = func() {
				round++
				wg := (g + 1 + round) % len(groups)
				wj := (j + round) % groups[wg]
				n.Send(nid(wg, wj), round, 600+64*((g+j+round)%5))
				pj := (j + 1) % groups[g]
				n.SendPriority(nid(g, pj), round, 96)
				if round%5 == 0 {
					n.Send(n.ID, round, 32) // loopback
				}
				if charge && round%3 == 0 {
					n.Charge(time.Duration(200+(g*31+j*17)%400) * time.Microsecond)
				}
				n.After(period, tick)
			}
			n.After(time.Duration(g*groups[g]+j)*137*time.Microsecond, tick)
		}
	}
	return rec
}

// TestSchedulerFingerprints pins the pre-refactor delivery stream of three
// traffic mixes byte-for-byte.
func TestSchedulerFingerprints(t *testing.T) {
	groups := []int{8, 8, 8, 8}
	cases := []struct {
		name string
		want string
		run  func() string
	}{
		{"dense-traffic", fpDenseTraffic, func() string {
			nw := New(Config{GroupSizes: groups, Seed: 11, GST: 200 * time.Millisecond, UnstableFactor: 5})
			nw.SetFaults(FaultConfig{Jitter: 0.1})
			rec := fpDrive(nw, groups, false)
			nw.Run(2 * time.Second)
			return rec.finish(nw)
		}},
		{"faulty-wan", fpFaultyWAN, func() string {
			nw := New(Config{GroupSizes: groups, Seed: 23})
			nw.SetFaults(FaultConfig{WANDrop: 0.1, WANDup: 0.08, LANDrop: 0.02, Jitter: 0.3})
			nw.SchedulePartition(500*time.Millisecond, time.Second, 1, 2)
			rec := fpDrive(nw, groups, false)
			nw.Run(2 * time.Second)
			return rec.finish(nw)
		}},
		{"charge-heavy", fpChargeHeavy, func() string {
			nw := New(Config{GroupSizes: groups, Seed: 37})
			nw.SetFaults(FaultConfig{Jitter: 0.2})
			rec := fpDrive(nw, groups, true)
			nw.Run(2 * time.Second)
			return rec.finish(nw)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			if got != tc.want {
				t.Fatalf("scheduler fingerprint drift:\n want %s\n  got %s", tc.want, got)
			}
		})
	}
}
