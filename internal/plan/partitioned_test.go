package plan

import (
	"testing"
	"testing/quick"
)

func TestBijectivePlainRegime(t *testing.T) {
	// 4 -> 7 (Fig 5a): f1+f2+1 = 4 transfers, distinct senders/receivers.
	trs, err := Bijective(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 4 {
		t.Fatalf("got %d transfers, want 4", len(trs))
	}
	seenS, seenR := map[int]bool{}, map[int]bool{}
	for _, tr := range trs {
		if seenS[tr.Sender] || seenR[tr.Receiver] {
			t.Fatal("plain regime must use distinct senders and receivers")
		}
		seenS[tr.Sender] = true
		seenR[tr.Receiver] = true
	}
	// Equal groups pair node i with node i, 2f+1 times, in that order: what
	// every BR run in the tree (all equal-sized) sends.
	for n, want := range map[int]int{3: 1, 4: 3, 7: 5, 16: 11} {
		trs, _ := Bijective(n, n)
		if len(trs) != want {
			t.Fatalf("%d->%d: %d pairs, want %d", n, n, len(trs), want)
		}
		for i, tr := range trs {
			if tr != (BijectiveTransfer{Sender: i, Receiver: i}) {
				t.Fatalf("%d->%d: pair %d is %+v", n, n, i, tr)
			}
		}
	}
}

func TestBijectivePartitionedRegime(t *testing.T) {
	// n1=4 (f1=1), n2=13 (f2=4): need = 6 > 4 senders, so the plan must be
	// partitioned and cost more than f1+f2+1 copies (§IV-A).
	trs, err := Bijective(4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) <= 6 {
		t.Fatalf("partitioned regime should exceed f1+f2+1=6 copies, got %d", len(trs))
	}
	// Each transfer in range; each sender sends the same count.
	perSender := map[int]int{}
	for _, tr := range trs {
		if tr.Sender < 0 || tr.Sender >= 4 || tr.Receiver < 0 || tr.Receiver >= 13 {
			t.Fatalf("out of range: %+v", tr)
		}
		perSender[tr.Sender]++
	}
	for i := 0; i < 4; i++ {
		if perSender[i] != perSender[0] {
			t.Fatal("uneven sender load")
		}
	}
}

func TestBijectiveInvalidSizes(t *testing.T) {
	if _, err := Bijective(0, 5); err == nil {
		t.Fatal("zero sender group accepted")
	}
	if _, err := Bijective(5, -1); err == nil {
		t.Fatal("negative receiver group accepted")
	}
}

// TestBijectiveSurvivesWorstCase is the cluster-sending safety property:
// for any f1 faulty senders and f2 faulty receivers, at least one transfer
// connects a correct sender to a correct receiver.
func TestBijectiveSurvivesWorstCase(t *testing.T) {
	f := func(aRaw, bRaw uint8, mask uint32) bool {
		n1 := int(aRaw)%25 + 1
		n2 := int(bRaw)%25 + 1
		trs, err := Bijective(n1, n2)
		if err != nil {
			return false
		}
		badS := pickSet(n1, Faulty(n1), mask)
		badR := pickSet(n2, Faulty(n2), mask>>7)
		for _, tr := range trs {
			if !badS[tr.Sender] && !badR[tr.Receiver] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBijectiveAdversarialGreedy attacks the plan with a greedy adversary
// (silence the busiest senders, deafen the busiest receivers) — stronger
// than random faults for partitioned plans.
func TestBijectiveAdversarialGreedy(t *testing.T) {
	for n1 := 1; n1 <= 20; n1++ {
		for n2 := 1; n2 <= 40; n2++ {
			trs, err := Bijective(n1, n2)
			if err != nil {
				t.Fatalf("%d->%d: %v", n1, n2, err)
			}
			// Greedy: kill the f1 senders with most transfers, then the f2
			// receivers covering most of the remainder.
			sendCount := map[int]int{}
			for _, tr := range trs {
				sendCount[tr.Sender]++
			}
			badS := topK(sendCount, Faulty(n1))
			recvCount := map[int]int{}
			for _, tr := range trs {
				if !badS[tr.Sender] {
					recvCount[tr.Receiver]++
				}
			}
			badR := topK(recvCount, Faulty(n2))
			ok := false
			for _, tr := range trs {
				if !badS[tr.Sender] && !badR[tr.Receiver] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%d->%d: greedy adversary disconnects the plan (%d transfers)",
					n1, n2, len(trs))
			}
		}
	}
}

// defeated reports whether some choice of f1 silent senders and f2 deaf
// receivers leaves no transfer between a correct sender and a correct
// receiver: the exhaustive adversary, every subset pair tried.
func defeated(n1, n2 int, trs []BijectiveTransfer) bool {
	found := false
	eachSubset(n1, Faulty(n1), func(badS map[int]bool) {
		eachSubset(n2, Faulty(n2), func(badR map[int]bool) {
			for _, tr := range trs {
				if !badS[tr.Sender] && !badR[tr.Receiver] {
					return
				}
			}
			found = true
		})
	})
	return found
}

// eachSubset calls fn with every k-element subset of [0, n).
func eachSubset(n, k int, fn func(map[int]bool)) {
	set := make(map[int]bool, k)
	var rec func(from int)
	rec = func(from int) {
		if len(set) == k {
			fn(set)
			return
		}
		for i := from; i < n; i++ {
			set[i] = true
			rec(i + 1)
			delete(set, i)
		}
	}
	rec(0)
}

// TestBijectiveSurvivesExhaustiveAdversary covers the unequal shapes where
// one group is smaller than f1+f2+1, against every adversary rather than a
// sampled or greedy one. The control is the pairing BR used to run, which
// wrapped receivers modulo n2 instead of partitioning: four copies 4→13 land
// on receivers 0-3 and f2 = 4 deaf receivers swallow them all.
func TestBijectiveSurvivesExhaustiveAdversary(t *testing.T) {
	wrapped := func(n1, n2 int) []BijectiveTransfer {
		var out []BijectiveTransfer
		for i := 0; i < Faulty(n1)+Faulty(n2)+1 && i < n1; i++ {
			out = append(out, BijectiveTransfer{Sender: i, Receiver: i % n2})
		}
		return out
	}
	for _, tc := range []struct{ n1, n2, copies int }{
		{4, 13, 8}, {13, 4, 13}, {4, 10, 8}, {10, 4, 10}, {7, 16, 14}, {16, 7, 16},
	} {
		trs, err := Bijective(tc.n1, tc.n2)
		if err != nil {
			t.Fatal(err)
		}
		if len(trs) != tc.copies {
			t.Errorf("%d->%d: %d copies, want %d", tc.n1, tc.n2, len(trs), tc.copies)
		}
		if defeated(tc.n1, tc.n2, trs) {
			t.Errorf("%d->%d: an adversary disconnects the plan", tc.n1, tc.n2)
		}
		if !defeated(tc.n1, tc.n2, wrapped(tc.n1, tc.n2)) {
			t.Errorf("%d->%d: the adversary misses the wrapped pairing's hole", tc.n1, tc.n2)
		}
	}
}

func topK(count map[int]int, k int) map[int]bool {
	out := make(map[int]bool)
	for len(out) < k {
		best, bestC := -1, -1
		for id, c := range count {
			if !out[id] && c > bestC {
				best, bestC = id, c
			}
		}
		if best < 0 {
			// Fewer distinct ids than k: pad with unused ids (still counts
			// as a failure budget spent).
			for id := 0; len(out) < k; id++ {
				if !out[id] {
					out[id] = true
				}
			}
			return out
		}
		out[best] = true
	}
	return out
}

func TestBijectiveCopiesVsEncodedRedundancy(t *testing.T) {
	// §IV-B's headline: the encoded approach's redundancy stays below the
	// (partitioned) bijective copy count across realistic geometries.
	for _, pair := range [][2]int{{4, 7}, {7, 7}, {4, 13}, {7, 19}, {10, 25}} {
		copies := BijectiveCopies(pair[0], pair[1])
		p, err := New(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if p.Redundancy() > float64(copies) {
			t.Fatalf("%v: encoded redundancy %.2f exceeds bijective %d copies",
				pair, p.Redundancy(), copies)
		}
	}
}
