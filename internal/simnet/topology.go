package simnet

import (
	"fmt"
	"math"
	"time"
)

// Topology is a materialized network geometry: a dense one-way latency
// matrix between regions (groups) and per-group WAN bandwidth tiers. For
// paper-sized runs a latency callback is fine; a 50+-region matrix probed
// on every one of millions of sends wants a flat slice lookup. A Topology is
// not safe for concurrent use — like the rest of the emulator it lives on
// one goroutine.
type Topology struct {
	regions int
	lat     []Time    // regions×regions one-way latency, row-major
	groupBW []float64 // per-group per-node WAN bandwidth (bytes/s); 0 = network default
}

// NewTopology creates a topology with every inter-region latency set to
// DefaultWANLatency and every group on the network's default bandwidth.
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
			if i != j {
				t.lat[i*regions+j] = DefaultWANLatency
			}
		}
	}
	return t
}

// Latency returns the one-way latency from region i to region j. Out-of-
// range regions fall back to the default WAN latency (mirrors the callback
// models, which return a constant for unknown pairs).
func (t *Topology) Latency(i, j int) Time {
	if i < 0 || j < 0 || i >= t.regions || j >= t.regions {
		return DefaultWANLatency
	}
	return t.lat[i*t.regions+j]
}

// SetLatency sets the one-way latency from region i to region j.
func (t *Topology) SetLatency(i, j int, d Time) {
	if i < 0 || j < 0 || i >= t.regions || j >= t.regions {
		panic(fmt.Sprintf("simnet: SetLatency(%d,%d) outside %d regions", i, j, t.regions))
	}
	t.lat[i*t.regions+j] = d
}

// GroupBandwidth returns the per-node WAN bandwidth of group g in bytes/s;
// 0 means "use the network's configured default".
func (t *Topology) GroupBandwidth(g int) float64 {
	if g < 0 || g >= t.regions {
		return 0
	}
	return t.groupBW[g]
}

// SetGroupBandwidth pins every node of group g to the given WAN bandwidth
// (bytes/s, each direction) — the bandwidth-tier knob.
func (t *Topology) SetGroupBandwidth(g int, bytesPerSec float64) {
	if g < 0 || g >= t.regions {
		panic(fmt.Sprintf("simnet: SetGroupBandwidth(%d) outside %d regions", g, t.regions))
	}
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
