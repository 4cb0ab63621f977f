package simnet

import (
	"container/heap"
	"math/bits"
)

// The scheduler is the emulator's core data structure: a priority queue of
// events totally ordered by (at, seq). Two interchangeable implementations
// exist:
//
//   - timerWheel: a hierarchical indexed timer wheel — O(1) amortized push
//     and pop, independent of the number of pending events. This is what
//     lets one machine simulate O(10k)-node topologies (Berger et al.,
//     "Simulating BFT Protocol Implementations at Scale"): a binary heap
//     over hundreds of thousands of outstanding timers spends its time in
//     O(log n) sift chains of cache misses, a wheel does two shifts and a
//     mask.
//   - heapSched: the original container/heap binary heap, kept verbatim as
//     the determinism oracle of the tests (any correct (at, seq) queue must
//     pop the identical sequence).
//
// Determinism argument: both structures implement the same strict total
// order. The wheel never compares events beyond (at, seq) — slot residency
// is a function of at alone, intra-slot lists are unordered but always
// drained through the (at, seq) imminent heap before execution — so the pop
// sequence of any event population is bit-identical to the heap's.
type scheduler interface {
	push(e *event)
	// peek returns the minimum event without removing it. It may reorganize
	// internal structure (cascade wheel levels) but never changes the order.
	peek() (*event, bool)
	pop() *event
	len() int
}

// Event kinds: a closure event (timers, harness schedules) or an inline
// message delivery. Deliveries used to capture a closure per send — at
// O(10k) nodes that is the dominant allocation — so the message rides in
// the event struct instead.
const (
	evFunc uint8 = iota
	evDeliver
)

type event struct {
	at   Time
	seq  uint64 // tie-breaker for determinism
	node *Node  // nil for network-level events
	kind uint8
	fn   func()  // evFunc
	msg  Message // evDeliver: delivered inline, no closure
	next *event  // intrusive link: wheel slot lists and the free list
}

// eventHeap is a binary min-heap over (at, seq): heapSched's queue.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// heapSched is the pre-refactor scheduler: a plain binary heap.
type heapSched struct{ q eventHeap }

func (s *heapSched) push(e *event) { heap.Push(&s.q, e) }
func (s *heapSched) peek() (*event, bool) {
	if len(s.q) == 0 {
		return nil, false
	}
	return s.q[0], true
}
func (s *heapSched) pop() *event { return heap.Pop(&s.q).(*event) }
func (s *heapSched) len() int    { return len(s.q) }

// Wheel geometry. One tick is 2^16 ns ≈ 65.5 µs — finer than any modeled
// latency, so almost every event lands one or two cascades from delivery.
// Four levels of 256 slots cover ~78 virtual hours; anything beyond spills
// into a (practically never used) overflow heap.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	tickShift   = 16
	bitmapWords = wheelSlots / 64
)

type wheelLevel struct {
	slots  [wheelSlots]*event // unordered singly-linked lists
	bitmap [bitmapWords]uint64
}

// nextSet scans the occupancy bitmap forward from the slot after c, with
// wraparound, returning the distance 1..wheelSlots to the first occupied
// slot. The scan is exclusive of c at distance 0 on purpose: a level's
// cursor slot can only hold events one full revolution ahead (same index
// mod wheelSlots, next window), so distance wheelSlots — not 0 — is its
// true meaning.
func (lv *wheelLevel) nextSet(c int) (int, bool) {
	s := (c + 1) & wheelMask
	w0, off := s>>6, s&63
	if b := lv.bitmap[w0] >> off; b != 0 {
		idx := s + bits.TrailingZeros64(b)
		return (idx-c-1)&wheelMask + 1, true
	}
	for k := 1; k <= bitmapWords; k++ {
		w := (w0 + k) & (bitmapWords - 1)
		if b := lv.bitmap[w]; b != 0 {
			idx := w<<6 + bits.TrailingZeros64(b)
			return (idx-c-1)&wheelMask + 1, true
		}
	}
	return 0, false
}

// evLess is the scheduler's total order.
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evHeap is a concrete binary min-heap over (at, seq) with inlined
// comparisons — container/heap routes every compare through an interface
// call, which at millions of scheduler ops per second is the dominant
// constant. Used for the wheel's imminent and overflow sets; heapSched keeps
// container/heap verbatim as the reference.
type evHeap []*event

func (h *evHeap) push(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *evHeap) pop() *event {
	q := *h
	n := len(q) - 1
	e := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && evLess(q[r], q[l]) {
			l = r
		}
		if !evLess(q[l], q[i]) {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	return e
}

// timerWheel is the hierarchical indexed timer wheel.
//
// Invariants:
//   - every event in a level-l slot satisfies
//     1 <= (tick(at) >> wheelBits*l) - (curTick >> wheelBits*l) <= wheelSlots,
//     i.e. its level-l window is strictly future and within one revolution,
//     so a slot holds exactly one window's events at a time and the
//     cursor's own slot unambiguously means "one revolution ahead";
//   - every event in imminent has tick(at) <= curTick, so imminent's
//     (at, seq) minimum is the global minimum;
//   - curTick only advances while imminent is empty, and only to the
//     earliest slot boundary any level (or the overflow heap) can still
//     produce an event at — boundaries are strictly > curTick, so every
//     drain makes progress and no event is ever skipped.
type timerWheel struct {
	curTick  int64
	count    int
	imminent evHeap
	levels   [wheelLevels]wheelLevel
	overflow evHeap
}

func tickOf(t Time) int64 { return int64(t) >> tickShift }

func (w *timerWheel) len() int { return w.count }

func (w *timerWheel) push(e *event) {
	w.count++
	w.insert(e)
}

func (w *timerWheel) insert(e *event) {
	tk := tickOf(e.at)
	if tk <= w.curTick {
		w.imminent.push(e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := wheelBits * l
		dw := (tk >> shift) - (w.curTick >> shift)
		if dw >= 1 && dw <= wheelSlots {
			idx := int((tk >> shift) & wheelMask)
			lv := &w.levels[l]
			e.next = lv.slots[idx]
			lv.slots[idx] = e
			lv.bitmap[idx>>6] |= 1 << (idx & 63)
			return
		}
	}
	w.overflow.push(e)
}

// advance cascades until imminent holds the global minimum (or the wheel is
// empty). Called by peek/pop; order-neutral by the invariants above.
func (w *timerWheel) advance() bool {
	for {
		if len(w.imminent) > 0 {
			return true
		}
		if w.count == 0 {
			return false
		}
		bestTick, bestLevel := int64(0), -1
		var boundaries [wheelLevels]int64
		for l := 0; l < wheelLevels; l++ {
			boundaries[l] = -1
			lv := &w.levels[l]
			shift := wheelBits * l
			c := int((w.curTick >> shift) & wheelMask)
			d, ok := lv.nextSet(c) // d in [1, wheelSlots]
			if !ok {
				continue
			}
			boundary := ((w.curTick >> shift) + int64(d)) << shift
			boundaries[l] = boundary
			if bestLevel < 0 || boundary < bestTick {
				bestTick, bestLevel = boundary, l
			}
		}
		if len(w.overflow) > 0 {
			if otk := tickOf(w.overflow[0].at); bestLevel < 0 || otk < bestTick {
				// Jump to the overflow horizon and pull everything that now
				// fits inside the wheel span back in.
				w.curTick = otk
				const topShift = wheelBits * (wheelLevels - 1)
				for len(w.overflow) > 0 {
					tk := tickOf(w.overflow[0].at)
					if tk > w.curTick && (tk>>topShift)-(w.curTick>>topShift) > wheelSlots {
						break
					}
					w.insert(w.overflow.pop())
				}
				continue
			}
		}
		if bestLevel < 0 {
			return false
		}
		// Drain EVERY slot whose boundary ties bestTick, finest level first.
		// Advancing curTick to a boundary shared by a coarser level would
		// otherwise leave that coarser slot at window-delta 0, which the
		// exclusive scan reads as a full revolution away — a late cascade.
		// Coarse drains re-insert strictly below their own level (their
		// window starts at curTick), so processing low-to-high terminates.
		w.curTick = bestTick
		for l := 0; l < wheelLevels; l++ {
			if boundaries[l] != bestTick {
				continue
			}
			shift := wheelBits * l
			idx := int((bestTick >> shift) & wheelMask)
			lv := &w.levels[l]
			e := lv.slots[idx]
			lv.slots[idx] = nil
			lv.bitmap[idx>>6] &^= 1 << (idx & 63)
			for e != nil {
				nxt := e.next
				e.next = nil
				w.insert(e)
				e = nxt
			}
		}
	}
}

func (w *timerWheel) peek() (*event, bool) {
	if !w.advance() {
		return nil, false
	}
	return w.imminent[0], true
}

func (w *timerWheel) pop() *event {
	if !w.advance() {
		return nil
	}
	w.count--
	return w.imminent.pop()
}

// --- event pool ---

// The pool recycles event structs through an intrusive free list.
func (nw *Network) allocEvent() *event {
	if e := nw.freeEvents; e != nil {
		nw.freeEvents = e.next
		e.next = nil
		return e
	}
	return &event{}
}

func (nw *Network) freeEvent(e *event) {
	*e = event{next: nw.freeEvents}
	nw.freeEvents = e
}
