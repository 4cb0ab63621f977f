// Package metrics collects the measurements the paper's evaluation reports:
// committed-transaction throughput, end-to-end entry latency (average and
// percentiles), per-second time series (Fig 15) and event counters. All
// timestamps are virtual simulation time.
package metrics

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Counts declares each event counter once, as an int64 field that producers
// increment, so a misspelled counter does not compile. A counter's name —
// Collector.Counter's argument, a key of Counters() and of a node's status
// file — is its field name in kebab case: RepairReqs is "repair-reqs". The
// nodes of a simulated cluster count into one Counts.
type Counts struct {
	// The fault layer's totals, sampled from simnet after each Run:
	// messages dropped, duplicated and dropped by a partition, and payloads
	// corrupted and equivocated by a Byzantine sender.
	NetDropped, NetDuplicated, NetPartitionDropped, NetCorrupted, NetEquivocated int64
	// Agreement verdicts (Cluster.AgreementReport, ProcNode.NoteAgreement,
	// both through forensics.Count) and the height of the last one's first
	// divergent block (0 when converged).
	ForkedDetected, WedgedDetected, AgreementFirstDivHeight int64
	// One per recovery path of DESIGN.md §6: chunk repair (RepairReqs,
	// which massbft-demo prints as chunk-repairs), entry fetch, stream
	// repair, record re-emission, entry rebroadcast, proposals a view change
	// lost (ProposalRetries: their transactions went back to intake),
	// takeover stamps, PBFT slot catch-up and installed state transfers.
	RepairReqs, FetchRetries, StreamRepairReqs, RecordRetries, EntryRebroadcasts int64
	ProposalRetries, TakeoverStamps, SlotCatchups, StateTransfers                int64
	// The serving side: chunk repairs, stream fetches and state transfers
	// answered.
	RepairServed, StreamRepairServed, RejoinServed int64
	// Offered checkpoints a rejoining node refused: a ledger suffix that does
	// not chain to its own, a pending entry its certificate does not cover,
	// or a group table with an id out of range, a cut list that does not
	// match, or a group in two states.
	RejoinBadsuffix, RejoinBadpending, RejoinBadgroups int64
	// What the group leaders handed to local consensus (heartbeat entries
	// included, view-change fillers not): the denominator for how much of what was
	// proposed executed.
	EntriesProposed, TxnsProposed int64
	// The PBFT views the local and the meta instance installed, once per
	// node per view (core's Node.transition).
	LocalViewChanges, MetaViewChanges int64
	// The erasure encodings and bucket decodes the process's memos did not
	// already hold: with nothing lost, one per (entry, transfer plan) and
	// one per bucket.
	EncodeMemoMisses, RebuildMemoMisses int64
	// Rebuilt buckets whose first certificate failed validation and a later
	// candidate was tried.
	CertRetries int64
	// Record intake (processRecords): meta batches whose certificate failed,
	// batches dropped past a certified cut, records below their stream's
	// view fence, and a standby origin's records other than its readiness.
	BatchCertRejected, FencedBatches, StaleViewRecords, StandbyFencedRecords int64
	// Stamps the orderer refused: one certified on another group's stream
	// (a takeover stamp racing the live owner: a fork), and a re-emission
	// superseded on its own stream.
	TsConflicts, TsReemits int64
	// Failover records queued by the meta leaders, and the scans that queued
	// more than one death.
	KeepalivesEmitted, SuspectsEmitted, RevokesEmitted, DeathsEmitted, DeathBatches int64
	// Membership records queued: a standby group's readiness attestation,
	// votes to join or leave, a leaving group's farewell, and epoch switches.
	JoinReadyEmitted, JoinVotesEmitted, LeaveVotesEmitted, FarewellsEmitted, EpochsEmitted int64
	// Group-table transitions (core's Node.transition): new suspicions and
	// withdrawn ones, deaths and repeated deaths, new join and leave votes,
	// epoch records refused as stale or not from the successor, and epoch
	// switches, departures among them.
	GroupSuspects, GroupRevokes, GroupDeaths, DeadDupes                              int64
	JoinVotes, LeaveVotes, EpochDupes, EpochBadOrigin, EpochSwitches, GroupsDeparted int64
	// A standby node's state transfer started and installed, and a joined
	// group's activation.
	StandbyBootstraps, StandbyBootstrapped, GroupsJoined int64
	// The gateway's intake (DESIGN.md §10): requests submitted, failing
	// verification, duplicates of pending ones, refused by the rate limit
	// or a full queue, enqueued, and the queue's peak length.
	GatewaySubmitted, GatewayVerifyFail, GatewayDupPending, GatewayRejectedRate int64
	GatewayRejectedOverload, GatewayEnqueued, GatewayQueuePeak                  int64
	// Its cut and execution: requests verified and proposed, dedup-window
	// answers, executions reported, proposals followers refused, and replies
	// a massbft-node routed to a connection or found none for.
	GatewayVerified, GatewayProposed, GatewayDedupCached, GatewayExecuted int64
	GatewayProposalReject, GatewayReplySent, GatewayReplyUnrouted         int64
	// The simulated clients: requests accepted on f+1 receipts, resent to
	// another group, and given up.
	ClientCommitted, ClientResubmitted, ClientGaveup int64
}

// counterNames holds each Counts field's name, in field order, and
// counterField the reverse.
var counterNames, counterField = func() ([]string, map[string]int) {
	t, wordStart := reflect.TypeOf(Counts{}), regexp.MustCompile(`\B[A-Z]`)
	names, field := make([]string, t.NumField()), make(map[string]int, t.NumField())
	for i := range names {
		names[i] = strings.ToLower(wordStart.ReplaceAllString(t.Field(i).Name, "-$0"))
		field[names[i]] = i
	}
	return names, field
}()

// Collector accumulates measurements for one run. It is single-threaded
// (driven by the simulation event loop).
type Collector struct {
	Counts

	start, end time.Duration

	committedTxns int64
	abortedTxns   int64
	entries       int64

	latencies []time.Duration

	// series buckets committed txns and latency sums per second.
	seriesTxns map[int]int64
	seriesLat  map[int]time.Duration
	seriesLatN map[int]int64
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		seriesTxns: make(map[int]int64),
		seriesLat:  make(map[int]time.Duration),
		seriesLatN: make(map[int]int64),
	}
}

// Counter returns the counter of that name (zero for a name Counts does not
// declare).
func (c *Collector) Counter(name string) int64 {
	if i, ok := counterField[name]; ok {
		return reflect.ValueOf(&c.Counts).Elem().Field(i).Int()
	}
	return 0
}

// Counters returns every non-zero counter by name.
func (c *Collector) Counters() map[string]int64 {
	v := reflect.ValueOf(&c.Counts).Elem()
	out := make(map[string]int64)
	for i, name := range counterNames {
		if n := v.Field(i).Int(); n != 0 {
			out[name] = n
		}
	}
	return out
}

// SetWindow restricts throughput accounting to [start, end] of virtual time;
// samples outside the window (warm-up / cool-down) still count into the time
// series but not into aggregate throughput and latency.
func (c *Collector) SetWindow(start, end time.Duration) { c.start, c.end = start, end }

func (c *Collector) inWindow(at time.Duration) bool {
	if c.end == 0 {
		return true
	}
	return at >= c.start && at <= c.end
}

// RecordExecution records an executed entry: n committed transactions and a
// aborted ones at virtual time `at`.
func (c *Collector) RecordExecution(at time.Duration, committed, aborted int) {
	sec := int(at / time.Second)
	c.seriesTxns[sec] += int64(committed)
	if !c.inWindow(at) {
		return
	}
	c.entries++
	c.committedTxns += int64(committed)
	c.abortedTxns += int64(aborted)
}

// RecordLatency records one entry's end-to-end latency observed at `at`.
func (c *Collector) RecordLatency(at, lat time.Duration) {
	sec := int(at / time.Second)
	c.seriesLat[sec] += lat
	c.seriesLatN[sec]++
	if !c.inWindow(at) {
		return
	}
	c.latencies = append(c.latencies, lat)
}

// Throughput returns committed transactions per second over the window.
func (c *Collector) Throughput() float64 {
	w := c.end - c.start
	if w <= 0 {
		return 0
	}
	return float64(c.committedTxns) / w.Seconds()
}

// Committed returns the number of committed transactions in the window.
func (c *Collector) Committed() int64 { return c.committedTxns }

// Aborted returns the number of conflict-aborted transactions in the window.
func (c *Collector) Aborted() int64 { return c.abortedTxns }

// Entries returns the number of executed entries in the window.
func (c *Collector) Entries() int64 { return c.entries }

// AbortRate returns aborted/(committed+aborted), the §VI-A abort metric.
func (c *Collector) AbortRate() float64 {
	total := c.committedTxns + c.abortedTxns
	if total == 0 {
		return 0
	}
	return float64(c.abortedTxns) / float64(total)
}

// AvgLatency returns the mean entry latency over the window.
func (c *Collector) AvgLatency() time.Duration {
	if len(c.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range c.latencies {
		sum += l
	}
	return sum / time.Duration(len(c.latencies))
}

// PercentileLatency returns the p-th percentile latency (p in (0,100]),
// using the ceil nearest-rank definition: the smallest sample such that at
// least p% of samples are <= it. (Truncating instead of ceiling would return
// a sample below the requested rank whenever p*n is not integral — e.g. the
// p50 of 5 samples would be the 2nd instead of the 3rd.)
func (c *Collector) PercentileLatency(p float64) time.Duration {
	if len(c.latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), c.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SeriesPoint is one second of the Fig 15 time series.
type SeriesPoint struct {
	Second     int
	Throughput float64 // committed txns in that second
	AvgLatency time.Duration
}

// Series returns the per-second time series from second 0 through the last
// recorded second.
func (c *Collector) Series() []SeriesPoint {
	last := 0
	for s := range c.seriesTxns {
		if s > last {
			last = s
		}
	}
	for s := range c.seriesLatN {
		if s > last {
			last = s
		}
	}
	out := make([]SeriesPoint, 0, last+1)
	for s := 0; s <= last; s++ {
		p := SeriesPoint{Second: s, Throughput: float64(c.seriesTxns[s])}
		if n := c.seriesLatN[s]; n > 0 {
			p.AvgLatency = c.seriesLat[s] / time.Duration(n)
		}
		out = append(out, p)
	}
	return out
}

// Summary formats the headline numbers, followed by any non-zero event
// counters in sorted order so chaos runs are debuggable at a glance.
func (c *Collector) Summary() string {
	s := fmt.Sprintf("throughput=%.0f tps latency(avg)=%v p50=%v entries=%d abortRate=%.3f",
		c.Throughput(), c.AvgLatency().Round(time.Millisecond),
		c.PercentileLatency(50).Round(time.Millisecond), c.entries, c.AbortRate())
	counters := c.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf(" %s=%d", name, counters[name])
	}
	return s
}
