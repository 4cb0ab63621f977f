package simnet

// SchedulerDrive is the benchmark seam for the event queue: it pushes and
// pops `ops` events through the selected scheduler with `resident` events
// outstanding throughout, drawing future offsets from a seeded splitmix64
// stream, and returns an FNV-1a checksum over the popped (at, seq) sequence.
//
// The checksum makes the drive double as a determinism oracle — the wheel
// and the reference heap (legacy) must return the identical value for
// identical inputs — while the caller times the call to get scheduler
// throughput. Events recycle through one free list like the run loop's.
//
// The offset distribution mirrors live traffic: mostly sub-tick and LAN/WAN
// scale delays with an occasional far timer, so the wheel exercises its
// imminent heap, all four levels, and the overflow path.
func SchedulerDrive(legacy bool, resident, ops int, seed int64) uint64 {
	var sched scheduler
	if legacy {
		sched = &heapSched{}
	} else {
		sched = &timerWheel{}
	}
	rng := newScenarioRNG(seed)
	var (
		now  Time
		seq  uint64
		free *event
	)
	alloc := func() *event {
		if e := free; e != nil {
			free = e.next
			e.next = nil
			return e
		}
		return &event{}
	}
	push := func() {
		var d Time
		// The mix mirrors BFT traffic at scale: intra-group consensus
		// (broadcast, O(n^2) messages at LAN latency) dominates the op
		// stream, inter-group relays and protocol timers are the long tail.
		switch rng.intn(16) {
		case 0, 1, 2, 3:
			d = Time(rng.intn(1 << 14)) // sub-tick (CPU charges, loopback)
		case 4, 5, 6, 7, 8, 9, 10, 11, 12, 13:
			d = Time(rng.intn(1 << 21)) // ~2 ms: LAN scale
		case 14:
			d = Time(rng.intn(1 << 29)) // ~500 ms: WAN scale
		case 15:
			d = Time(rng.intn(1 << 34)) // protocol timer scale (~17 s max)
		}
		e := alloc()
		e.at, e.seq = now+d, seq
		seq++
		sched.push(e)
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	sum := uint64(fnvOffset)
	for i := 0; i < resident; i++ {
		push()
	}
	for i := 0; i < ops; i++ {
		e := sched.pop()
		now = e.at
		sum = (sum ^ uint64(e.at)) * fnvPrime
		sum = (sum ^ e.seq) * fnvPrime
		*e = event{next: free}
		free = e
		push()
	}
	return sum
}

// scenarioRNG is a splitmix64 stream for drive- and scenario-level choices,
// private to the drive or scenario that seeds it.
type scenarioRNG struct{ s uint64 }

func newScenarioRNG(seed int64) *scenarioRNG {
	return &scenarioRNG{s: uint64(seed) ^ 0x9e3779b97f4a7c15}
}

func (r *scenarioRNG) next() uint64 {
	z := mix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}

// intn returns a value in [0, n).
func (r *scenarioRNG) intn(n int) int { return int(r.next() % uint64(n)) }
