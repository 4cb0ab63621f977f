package simnet

import (
	"massbft/internal/keys"
)

// This file is the giant-topology scenario layer: deterministic builders and
// drivers for O(10k)-node stress runs, well past the paper's 4×7 / 10-group
// envelope. Everything here is reproducible from (geometry seed, schedule
// seed) alone — victim selection and arrival spreading use a private
// splitmix64 stream, never the network's jitter RNG, so layering a crash
// schedule or a flash crowd onto a run does not perturb its base latency
// stream.

// durn returns a duration in [0, d).
func (r *scenarioRNG) durn(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.next() % uint64(d))
}

// BuildScaleNetwork assembles a giant emulated deployment: `regions` data
// centers placed on a globe-realistic RTT matrix (simnet.GlobeTopology) with
// heterogeneous per-region bandwidth tiers, `groupSize` nodes each. With
// regions=50, groupSize=200 this is a 10k-node network — the scale target the
// timer-wheel scheduler is sized for.
func BuildScaleNetwork(regions, groupSize int, seed int64) *Network {
	topo := GlobeTopology(regions, seed).
		// 1 Gbps / 100 Mbps / 20 Mbps tiers cycled across regions.
		BandwidthTiers(1e9/8, 100e6/8, 20e6/8)
	sizes := make([]int, regions)
	for i := range sizes {
		sizes[i] = groupSize
	}
	return New(Config{GroupSizes: sizes, Topology: topo, Seed: seed, Jitter: 0.05})
}

// TrafficStats counts what a synthetic driver delivered.
type TrafficStats struct {
	Delivered int64 // handler invocations
	WANSends  int64 // inter-region bulk messages sent
	LANSends  int64 // intra-region control messages sent
}

// DriveUniformTraffic installs counting handlers on every node and starts a
// periodic per-node workload until stopAt: each period a node sends one bulk
// message to a rotating peer region (picked deterministically from the node
// identity and round, not from any map or RNG) and one priority control
// message to a LAN neighbor. The returned stats are live — read them after
// Run.
func DriveUniformTraffic(nw *Network, period Time, bulkSize, ctrlSize int, stopAt Time) *TrafficStats {
	stats := &TrafficStats{}
	h := HandlerFunc(func(n *Node, msg Message) { stats.Delivered++ })
	ng := nw.NumGroups()
	for g := 0; g < ng; g++ {
		for j := 0; j < nw.GroupSize(g); j++ {
			nw.SetHandler(keys.NodeID{Group: g, Index: j}, h)
		}
	}
	for g := 0; g < ng; g++ {
		size := nw.GroupSize(g)
		for j := 0; j < size; j++ {
			n := nw.Node(keys.NodeID{Group: g, Index: j})
			round := 0
			var tick func()
			tick = func() {
				if n.Now() >= stopAt {
					return
				}
				peerG := (n.ID.Group + 1 + (n.ID.Index+round)%(ng-1)) % ng
				peerJ := (n.ID.Index + round) % nw.GroupSize(peerG)
				n.Send(keys.NodeID{Group: peerG, Index: peerJ}, round, bulkSize)
				stats.WANSends++
				lanJ := (n.ID.Index + 1) % nw.GroupSize(n.ID.Group)
				n.SendPriority(keys.NodeID{Group: n.ID.Group, Index: lanJ}, round, ctrlSize)
				stats.LANSends++
				round++
				n.After(period, tick)
			}
			// Stagger starts across the period so 10k timers do not all fire
			// on the same tick (deterministic per-node offset).
			n.After(period*Time(g*size+j)/Time(ng*size), tick)
		}
	}
	return stats
}

// ScheduleFlashCrowd models a flash-crowd arrival: at time `at`, every node
// of every region fires `extra` additional bulk sends to uniformly chosen
// peers, with arrival times spread over `window` by a seeded stream. The
// paper's load is steady-state; this is the adversarial burst case — the
// scheduler must absorb an O(nodes×extra) event spike in one window.
func ScheduleFlashCrowd(nw *Network, at, window Time, extra, size int, seed int64) {
	rng := newScenarioRNG(seed)
	ng := nw.NumGroups()
	type burst struct {
		from, to keys.NodeID
		delay    Time
	}
	var bursts []burst
	for g := 0; g < ng; g++ {
		for j := 0; j < nw.GroupSize(g); j++ {
			from := keys.NodeID{Group: g, Index: j}
			for k := 0; k < extra; k++ {
				tg := rng.intn(ng)
				to := keys.NodeID{Group: tg, Index: rng.intn(nw.GroupSize(tg))}
				bursts = append(bursts, burst{from: from, to: to, delay: rng.durn(window)})
			}
		}
	}
	nw.Schedule(at, func() {
		for _, b := range bursts {
			b := b
			src := nw.Node(b.from)
			src.After(b.delay, func() { src.Send(b.to, "flash", size) })
		}
	})
}

// CrashWave is one scheduled outage: Victims go dark at At and recover at
// At+Down. Waves returned by ScheduleCrashWaves overlap in time, so multiple
// regions are degraded simultaneously — the multi-node crash-overlap case the
// crash-state reset bugfix is about.
type CrashWave struct {
	At, Down Time
	Victims  []keys.NodeID
}

// ScheduleCrashWaves schedules `waves` overlapping crash windows starting at
// `first`, each crashing `perWave` deterministically chosen nodes (at most
// one per region per wave, so no region ever loses quorum to the schedule
// alone) for `down`, with successive waves offset by `gap` < `down` to force
// overlap. Returns the schedule for assertions and charting.
func ScheduleCrashWaves(nw *Network, first Time, waves, perWave int, down, gap Time, seed int64) []CrashWave {
	rng := newScenarioRNG(seed)
	ng := nw.NumGroups()
	out := make([]CrashWave, 0, waves)
	for w := 0; w < waves; w++ {
		wave := CrashWave{At: first + gap*Time(w), Down: down}
		// Pick perWave distinct regions, one victim each.
		seen := make([]bool, ng)
		for len(wave.Victims) < perWave && len(wave.Victims) < ng {
			g := rng.intn(ng)
			if seen[g] {
				continue
			}
			seen[g] = true
			wave.Victims = append(wave.Victims, keys.NodeID{Group: g, Index: rng.intn(nw.GroupSize(g))})
		}
		for _, id := range wave.Victims {
			id := id
			nw.Schedule(wave.At, func() { nw.Crash(id) })
			nw.Schedule(wave.At+down, func() { nw.Recover(id) })
		}
		out = append(out, wave)
	}
	return out
}
