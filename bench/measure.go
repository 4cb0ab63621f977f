package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostSnap is the host-side state the window metrics are deltas of.
type hostSnap struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

func snapHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC}
}

// percentile is the ceil nearest-rank percentile (the definition
// metrics.Collector uses): the smallest sample such that at least p% of the
// samples are <= it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// nearest-rank percentile. A tail percentile is only trusted with at least
// ten samples beyond it; every latency is printed with n and this count so
// an unsupported p99 is visible as such.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

const minBeyond = 10

// median of a non-empty slice (mean of the middle pair for even lengths).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
