package trace

import (
	"sort"
	"time"

	"massbft/internal/keys"
	"massbft/internal/types"
)

// Segment is one piece of an entry's critical path: the stage that was the
// innermost active work during that slice of the entry's lifetime.
type Segment struct {
	Stage string
	Start time.Duration
	End   time.Duration
}

// Dur returns the segment length.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// EntryPath is one entry's reconstructed critical path as seen from the
// vantage node: a gapless partition of [Start, End] — proposal instant to
// execution start — so the segment durations sum to the entry's measured
// end-to-end latency exactly.
type EntryPath struct {
	Entry    types.EntryID
	Start    time.Duration
	End      time.Duration
	Segments []Segment
}

// E2E returns the entry's end-to-end latency (propose → execution start).
func (p EntryPath) E2E() time.Duration { return p.End - p.Start }

// StageStat aggregates one stage's contribution across all entry paths.
type StageStat struct {
	Stage string
	// Total is the summed critical-path time attributed to this stage.
	Total time.Duration
	// Avg is Total divided by the number of analyzed entries (so the per-
	// stage averages sum to the average end-to-end latency, up to integer
	// rounding).
	Avg time.Duration
	// Share is Total as a fraction of all entries' end-to-end time.
	Share float64
}

// Report is the output of Analyze.
type Report struct {
	// Entries holds one critical path per entry executed at the vantage
	// node, in execution order.
	Entries []EntryPath
	// Stages aggregates stage contributions, largest Total first.
	Stages []StageStat
	// Dominant is the stage with the largest Total ("" when no entries).
	Dominant string
	// E2EAvg is the mean end-to-end latency across analyzed entries.
	E2EAvg time.Duration
}

// originStages are recorded only on the proposer node, so they are unique
// per entry and always belong on the critical path regardless of vantage.
var originStages = map[string]bool{
	StagePropose:        true,
	StagePrePrepare:     true,
	StagePrepare:        true,
	StageCommit:         true,
	StageLocalConsensus: true,
	StageEncode:         true,
}

// Analyze reconstructs each entry's critical path from the vantage of one
// observer node. For every entry the observer executed, the window [propose,
// execution start] is partitioned by the "innermost active span" rule: at
// each instant, among the selected spans covering it (the observer's own
// spans plus the proposer-side origin spans), the one that started latest —
// ties to the shorter span — is the work actually blocking the entry; slices
// no span covers become StageWait. The partition is gapless by construction,
// so each path's segment sum equals the entry's measured end-to-end latency.
func Analyze(spans []Span, observer keys.NodeID) *Report {
	byEntry := make(map[types.EntryID][]Span)
	var order []types.EntryID
	for _, s := range spans {
		if s.Node != observer && !originStages[s.Stage] {
			continue
		}
		if _, ok := byEntry[s.Entry]; !ok {
			order = append(order, s.Entry)
		}
		byEntry[s.Entry] = append(byEntry[s.Entry], s)
	}

	rep := &Report{}
	totals := make(map[string]time.Duration)
	var e2eSum time.Duration
	for _, id := range order {
		path, ok := analyzeEntry(id, byEntry[id], observer)
		if !ok {
			continue
		}
		rep.Entries = append(rep.Entries, path)
		e2eSum += path.E2E()
		for _, seg := range path.Segments {
			totals[seg.Stage] += seg.Dur()
		}
	}
	sort.Slice(rep.Entries, func(i, j int) bool { return rep.Entries[i].End < rep.Entries[j].End })
	n := len(rep.Entries)
	if n == 0 {
		return rep
	}
	rep.E2EAvg = e2eSum / time.Duration(n)
	for stage, total := range totals {
		rep.Stages = append(rep.Stages, StageStat{
			Stage: stage,
			Total: total,
			Avg:   total / time.Duration(n),
			Share: float64(total) / float64(e2eSum),
		})
	}
	sort.Slice(rep.Stages, func(i, j int) bool {
		if rep.Stages[i].Total != rep.Stages[j].Total {
			return rep.Stages[i].Total > rep.Stages[j].Total
		}
		return rep.Stages[i].Stage < rep.Stages[j].Stage
	})
	rep.Dominant = rep.Stages[0].Stage
	return rep
}

// analyzeEntry partitions one entry's lifecycle window. Entries the observer
// never executed (still in flight at run end) are skipped.
func analyzeEntry(id types.EntryID, spans []Span, observer keys.NodeID) (EntryPath, bool) {
	var t0, t1 time.Duration
	haveExec, havePropose := false, false
	for _, s := range spans {
		if s.Stage == StageExecute && s.Node == observer {
			t1 = s.Start // the e2e latency metric stops at execution start
			haveExec = true
		}
		if s.Stage == StagePropose {
			t0 = s.Start
			havePropose = true
		}
	}
	if !haveExec {
		return EntryPath{}, false
	}
	if !havePropose {
		// An entry without a propose span (a view-change filler, proposed by
		// no one) falls back to the earliest span start.
		t0 = t1
		for _, s := range spans {
			if s.Start < t0 {
				t0 = s.Start
			}
		}
	}
	if t1 < t0 {
		return EntryPath{}, false
	}
	path := EntryPath{Entry: id, Start: t0, End: t1}

	// Collect the boundary points inside the window.
	cuts := []time.Duration{t0, t1}
	for _, s := range spans {
		if s.Start > t0 && s.Start < t1 {
			cuts = append(cuts, s.Start)
		}
		if s.End > t0 && s.End < t1 {
			cuts = append(cuts, s.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	// Walk the slices; adjacent slices with the same winning stage merge.
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		stage := innermost(spans, lo, hi)
		if k := len(path.Segments); k > 0 && path.Segments[k-1].Stage == stage {
			path.Segments[k-1].End = hi
		} else {
			path.Segments = append(path.Segments, Segment{Stage: stage, Start: lo, End: hi})
		}
	}
	if len(path.Segments) == 0 && t1 > t0 {
		path.Segments = append(path.Segments, Segment{Stage: StageWait, Start: t0, End: t1})
	}
	return path, true
}

// innermost picks the span that owns the slice [lo, hi): the covering span
// with the latest start, ties to the shorter span, then to the stage name
// for determinism. StageWait when nothing covers the slice.
func innermost(spans []Span, lo, hi time.Duration) string {
	best := -1
	for i, s := range spans {
		if s.Start > lo || s.End < hi || s.End == s.Start {
			continue // does not cover the slice (instant spans own nothing)
		}
		if best < 0 {
			best = i
			continue
		}
		b := spans[best]
		switch {
		case s.Start != b.Start:
			if s.Start > b.Start {
				best = i
			}
		case s.End != b.End:
			if s.End < b.End {
				best = i
			}
		case s.Stage < b.Stage:
			best = i
		}
	}
	if best < 0 {
		return StageWait
	}
	return spans[best].Stage
}
