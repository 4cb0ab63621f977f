package simnet

import (
	"fmt"
	"math"
	"time"
)

// Topology is the simulated network: a dense one-way latency matrix between
// regions (groups) whose diagonal holds each region's LAN latency, and each
// group's per-node WAN bandwidth. Every send reads its latency from the
// matrix, so a timed network change — the end of an unstable period, a
// link slowing down — is a SetLatency from a scheduled event: it applies to
// copies sent after the event, while copies in flight keep their arrival
// time. A Topology is not safe for concurrent use — like the rest of the
// emulator it lives on one goroutine.
type Topology struct {
	regions int
	lat     []Time    // regions×regions one-way latency, row-major
	groupBW []float64 // per-group per-node WAN bandwidth (bytes/s)
}

// NewTopology creates a topology with every inter-region latency set to
// DefaultWANDelay, every LAN at DefaultLANDelay and every group at
// DefaultWANBandwidth.
func NewTopology(regions int) *Topology {
	if regions <= 0 {
		panic(fmt.Sprintf("simnet: NewTopology(%d)", regions))
	}
	t := &Topology{
		regions: regions,
		lat:     make([]Time, regions*regions),
		groupBW: make([]float64, regions),
	}
	for i := 0; i < regions; i++ {
		for j := 0; j < regions; j++ {
			t.lat[i*regions+j] = DefaultWANDelay
		}
		t.lat[i*regions+i] = DefaultLANDelay
		t.groupBW[i] = DefaultWANBandwidth
	}
	return t
}

// ModelTopology materializes a WAN latency model: region i reaches region
// j ≠ i in wan(i, j); LANs and bandwidths are NewTopology's.
func ModelTopology(regions int, wan func(i, j int) Time) *Topology {
	t := NewTopology(regions)
	for i := 0; i < regions; i++ {
		for j := 0; j < regions; j++ {
			if i != j {
				t.SetLatency(i, j, wan(i, j))
			}
		}
	}
	return t
}

// Regions returns the number of regions the topology describes.
func (t *Topology) Regions() int { return t.regions }

func (t *Topology) check(i, j int) {
	if i < 0 || j < 0 || i >= t.regions || j >= t.regions {
		panic(fmt.Sprintf("simnet: regions (%d,%d) outside %d", i, j, t.regions))
	}
}

// Latency returns the one-way latency from region i to region j; Latency(i,
// i) is region i's LAN latency.
func (t *Topology) Latency(i, j int) Time {
	t.check(i, j)
	return t.lat[i*t.regions+j]
}

// SetLatency sets the one-way latency from region i to region j (i == j:
// region i's LAN).
func (t *Topology) SetLatency(i, j int, d Time) {
	t.check(i, j)
	t.lat[i*t.regions+j] = d
}

// GroupBandwidth returns the per-node WAN bandwidth of group g in bytes/s.
func (t *Topology) GroupBandwidth(g int) float64 {
	t.check(g, g)
	return t.groupBW[g]
}

// SetGroupBandwidth pins every node of group g to the given WAN bandwidth
// (bytes/s, each direction) — the bandwidth-tier knob.
func (t *Topology) SetGroupBandwidth(g int, bytesPerSec float64) {
	t.check(g, g)
	t.groupBW[g] = bytesPerSec
}

// GlobeTopology synthesizes a realistic planet-scale RTT matrix for n
// regions: regions are placed deterministically (seeded) on a sphere,
// one-way latency is great-circle distance over fiber (~2/3 c) plus a fixed
// per-hop overhead. With 50+ regions the RTTs span roughly 10–380 ms,
// bracketing the paper's nationwide (27–43 ms) and worldwide (156–206 ms)
// clusters.
func GlobeTopology(n int, seed int64) *Topology {
	t := NewTopology(n)
	rng := newScenarioRNG(seed)
	next := func() float64 { return unit(rng.next()) }
	type pt struct{ lat, lon float64 }
	pts := make([]pt, n)
	for i := range pts {
		// Latitudes biased toward the populated band (±60°).
		pts[i] = pt{lat: (next()*2 - 1) * math.Pi / 3, lon: (next()*2 - 1) * math.Pi}
	}
	const (
		earthRadiusKM = 6371.0
		fiberKMperMS  = 200.0 // ~2/3 of c
		hopOverheadMS = 2.0
	)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := pts[i], pts[j]
			central := math.Acos(math.Min(1, math.Max(-1,
				math.Sin(a.lat)*math.Sin(b.lat)+math.Cos(a.lat)*math.Cos(b.lat)*math.Cos(a.lon-b.lon))))
			oneWayMS := earthRadiusKM*central/fiberKMperMS + hopOverheadMS
			d := time.Duration(oneWayMS * float64(time.Millisecond))
			t.SetLatency(i, j, d)
			t.SetLatency(j, i, d)
		}
	}
	return t
}

// BandwidthTiers assigns heterogeneous per-group WAN bandwidth by cycling
// the tier list across groups (group g gets tiers[g%len]). Returns t for
// chaining.
func (t *Topology) BandwidthTiers(tiers ...float64) *Topology {
	if len(tiers) == 0 {
		return t
	}
	for g := 0; g < t.regions; g++ {
		t.SetGroupBandwidth(g, tiers[g%len(tiers)])
	}
	return t
}
