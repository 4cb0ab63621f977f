package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"massbft"
	"massbft/internal/workload"
)

// tcp-gw-2x3: six process-style nodes (massbft.StartNode) in this process,
// glued only by loopback TCP sockets, driven by one ClientPool of eight
// closed-loop signed clients. Its run clock is the wall clock.
//
// Topology rules, each forced by a defect found while sizing the workload
// (README.md, "Known defects"): every node carries a gateway address,
// groups have three nodes (f=0), and load is client-driven at low
// concurrency.
const (
	tcpName    = "tcp-gw-2x3"
	tcpClients = 8
	// Up to tcpSegments deployments share the measured window, one per 2.5 s
	// of it (a smoke run has one). Each start fixes the phase between the two
	// leaders' batch timers for as long as the deployment lives, and that
	// phase moves throughput, commit_p50_ms and the CPU per request by
	// 10-20 %; measuring on several fresh deployments averages over it, and
	// gives setup_s its repeated set-ups.
	tcpSegments = 8
	tcpTimeout  = 2 * time.Second
	// tcpThinkMax bounds the seeded pause a client takes before each
	// request: one batch period, so arrivals spread evenly over the
	// leaders' 20 ms batch timer instead of locking to one phase of it (a
	// lock-step closed loop settles into a different phase every run, and
	// commit_p50_ms then ranges over 55-93 ms for the same code).
	tcpThinkMax = 20 * time.Millisecond
	tcpWarmup   = 500 * time.Millisecond
	tcpQuietMax = 10 * time.Second
)

var tcpGroups = []int{3, 3}

type tcpCluster struct {
	topo    *massbft.Topology
	nodes   []*massbft.ProcNode
	pool    *massbft.ClientPool
	clients []*massbft.Client
	gens    []workload.Workload
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		defer l.Close()
	}
	return addrs, nil
}

// startTCP brings the deployment up to the point timing may start: every
// node started and one request per client certified.
func startTCP(seed int64) (_ *tcpCluster, err error) {
	total := 0
	for _, n := range tcpGroups {
		total += n
	}
	addrs, err := freeAddrs(2 * total)
	if err != nil {
		return nil, err
	}
	topo := &massbft.Topology{
		Groups: tcpGroups, Seed: seed, Workload: "ycsb-a",
		BatchTimeoutMS: 20, MaxBatch: 200,
		RepairTimeoutMS: 200, CheckpointIntervalMS: 300, RejoinTimeoutMS: 1000,
		RealCrypto: true, Clients: tcpClients,
	}
	for g, n := range tcpGroups {
		for i := 0; i < n; i++ {
			k := len(topo.Nodes)
			topo.Nodes = append(topo.Nodes, massbft.NodeAddr{Group: g, Index: i, Addr: addrs[k], Gateway: addrs[total+k]})
		}
	}
	tc := &tcpCluster{topo: topo}
	defer func() {
		if err != nil {
			tc.stop()
		}
	}()
	// All six at once, as separately launched processes would start: a node
	// started alone dials peers that are not listening yet and backs off,
	// which makes set-up time a lottery.
	tc.nodes = make([]*massbft.ProcNode, len(topo.Nodes))
	startErrs := make([]error, len(topo.Nodes))
	var wg sync.WaitGroup
	for i, na := range topo.Nodes {
		wg.Add(1)
		go func(i int, na massbft.NodeAddr) {
			defer wg.Done()
			tc.nodes[i], startErrs[i] = massbft.StartNode(massbft.NodeConfig{Topology: topo, Group: na.Group, Index: na.Index})
		}(i, na)
	}
	wg.Wait()
	if err := errors.Join(startErrs...); err != nil {
		return nil, err
	}
	// transport/tcp dials a peer on the first send to it, so "every peer
	// connected" is not a state to wait for: the connections a request
	// needs exist once a request has been certified, which is the
	// readiness condition below.
	if tc.pool, err = massbft.DialClients(massbft.ClientPoolConfig{Topology: topo, Timeout: tcpTimeout}); err != nil {
		return nil, err
	}
	errs := make(chan error, tcpClients)
	for id := uint64(1); id <= tcpClients; id++ {
		cl, err := tc.pool.Client(id)
		if err != nil {
			return nil, err
		}
		gen, err := workload.New(topo.Workload, seed+int64(id)*7919)
		if err != nil {
			return nil, err
		}
		tc.clients, tc.gens = append(tc.clients, cl), append(tc.gens, gen)
		go func() {
			_, err := cl.Submit(gen.Next(cl.ID()).Payload)
			errs <- err
		}()
	}
	for range tc.clients {
		if e := <-errs; e != nil && err == nil {
			err = fmt.Errorf("bench: %s first request: %w", tcpName, e)
		}
	}
	return tc, err
}

// stop tears the deployment down and collects it, so that the next one does
// not grow its heap over this one's garbage (max_rss_mb is one deployment's
// footprint, not a race between deployments and the collector).
func (tc *tcpCluster) stop() {
	defer runtime.GC()
	if tc.pool != nil {
		tc.pool.Close()
	}
	var wg sync.WaitGroup
	for _, n := range tc.nodes {
		if n == nil { // a start that failed
			continue
		}
		wg.Add(1)
		go func(n *massbft.ProcNode) {
			defer wg.Done()
			n.Stop(0) // its error is a late flush failure on a fabric being torn down
		}(n)
	}
	wg.Wait()
}

func (tc *tcpCluster) bytesOut() (out uint64) {
	for _, n := range tc.nodes {
		out += n.TransportStats().BytesOut
	}
	return out
}

func (tc *tcpCluster) statuses() ([]massbft.NodeStatus, error) {
	sts := make([]massbft.NodeStatus, len(tc.nodes))
	for i, n := range tc.nodes {
		var err error
		if sts[i], err = n.Status(); err != nil {
			return nil, err
		}
	}
	return sts, nil
}

// completion is one finished Submit.
type completion struct {
	at       time.Time
	lat      time.Duration
	attempts int
	err      error
}

// tcpTotals accumulates what the segments measured.
type tcpTotals struct {
	lats                         []float64 // ms, certified requests inside a window
	submitErrs, stuck, resubmits int64
	stalledSeconds               int
	bytesOut                     uint64
	drops, prioDrops             uint64
	counters                     map[string]int64 // summed over nodes and segments
	entries, committed, aborted  int64            // node (0,0), summed over segments
	quiet                        time.Duration
	reportMS                     float64
}

// measure drives one started deployment through warm-up and its share of
// the measured window, then stops the load, waits for the six nodes to
// agree and adds everything to t.
func (tc *tcpCluster) measure(r *result, win *window, t *tcpTotals, seed int64, warm, measured time.Duration) error {
	// Closed loop: each client's next request leaves (after its think time)
	// when its last one holds a certificate.
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		done     = make([][]completion, len(tc.clients))
		inflight = make([]atomic.Int64, len(tc.clients)) // start of the open Submit, unix ns
	)
	for i, cl := range tc.clients {
		wg.Add(1)
		go func(i int, cl *massbft.Client, gen workload.Workload) {
			defer wg.Done()
			think := rand.New(rand.NewSource(seed ^ int64(cl.ID())<<32))
			for !stop.Load() {
				time.Sleep(time.Duration(think.Int63n(int64(tcpThinkMax))))
				began := time.Now()
				inflight[i].Store(began.UnixNano())
				res, err := cl.Submit(gen.Next(cl.ID()).Payload)
				now := time.Now()
				inflight[i].Store(0)
				if errors.Is(err, massbft.ErrPoolClosed) {
					return
				}
				done[i] = append(done[i], completion{now, now.Sub(began), res.Attempts, err})
			}
		}(i, cl, tc.gens[i])
	}
	time.Sleep(warm)
	if err := win.begin(); err != nil {
		return err
	}
	began, bytesBefore := win.start.wall, tc.bytesOut()
	time.Sleep(measured)
	t.bytesOut += tc.bytesOut() - bytesBefore
	ended := time.Now()
	if err := win.finish(); err != nil {
		return err
	}

	// Stop the load. A Submit still open is cut short by closing the pool;
	// it only counts as failed if it had already outlived its timeout.
	stop.Store(true)
	for i := range inflight {
		if open := inflight[i].Load(); open != 0 && ended.Sub(time.Unix(0, open)) > tcpTimeout {
			t.stuck++
		}
	}
	tc.pool.Close()
	wg.Wait()
	perSecond := make([]int, int(measured/time.Second))
	for _, cs := range done {
		for _, c := range cs {
			if c.at.Before(began) || c.at.After(ended) {
				continue
			}
			if c.err != nil {
				t.submitErrs++
				r.notef("submit error: %v", c.err)
				continue
			}
			t.lats = append(t.lats, float64(c.lat)/1e6)
			t.resubmits += int64(c.attempts - 1)
			if s := int(c.at.Sub(began) / time.Second); s < len(perSecond) {
				perSecond[s]++
			}
		}
	}
	for _, c := range perSecond {
		if c == 0 {
			t.stalledSeconds++
		}
	}

	// Quiesce, then judge agreement across all six status snapshots.
	quietBegan := time.Now()
	var sts []massbft.NodeStatus
	var sum massbft.AgreementSummary
	for {
		var err error
		if sts, err = tc.statuses(); err != nil {
			return err
		}
		sum = massbft.ClassifyStatuses(sts)
		if sum.Verdict != massbft.AgreementWedged || time.Since(quietBegan) > tcpQuietMax {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.quiet += time.Since(quietBegan)
	reportBegan := time.Now()
	if again, err := tc.statuses(); err == nil {
		massbft.ClassifyStatuses(again)
	}
	t.reportMS = float64(time.Since(reportBegan).Microseconds()) / 1e3
	r.notef("agreement: %s", sum.Detail)
	if sum.Verdict != massbft.AgreementConverged {
		r.fail("verdict %s across %d status snapshots, want converged", sum.Verdict, len(sts))
	}
	for _, st := range sts {
		for k, v := range st.Counters {
			t.counters[k] += v
		}
		t.prioDrops += st.Transport.QueueDropPrio
		t.drops += st.Transport.QueueDropPrio + st.Transport.QueueDropBulk
	}
	t.entries += sts[0].Entries
	t.committed += sts[0].Committed
	t.aborted += sts[0].Aborted
	return nil
}

func runTCP(o runOpts) (*result, error) {
	r := newResult()
	segments := min(tcpSegments, max(1, o.seconds*2/5))
	measured := time.Duration(o.seconds) * time.Second / time.Duration(segments)
	warm := tcpWarmup
	if measured < 2*warm {
		warm = measured / 2 // smoke runs
	}
	var setups []float64
	win := window{trace: o.trace}
	t := tcpTotals{counters: map[string]int64{}}
	for seg := 0; seg < segments; seg++ {
		// Each segment is a fresh deployment fed its own slice of the
		// seed's input stream.
		seed := o.seed*tcpSegments + int64(seg)
		began := time.Now()
		tc, err := startTCP(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(began).Seconds())
		err = tc.measure(r, &win, &t, seed, warm, measured)
		tc.stop()
		if err != nil {
			return nil, err
		}
	}
	r.e2e["setup_s"] = median(setups)
	if len(t.lats) == 0 {
		return nil, fmt.Errorf("bench: %s certified nothing in %d s", tcpName, o.seconds)
	}
	if t.prioDrops > 0 {
		r.fail("%d priority-lane frames dropped (transport-queue-drop-prio)", t.prioDrops)
	}
	sort.Float64s(t.lats)
	certified := int64(len(t.lats))
	r.Attempted = certified + t.submitErrs + t.stuck
	r.Failed = t.submitErrs + t.stuck

	// End-to-end metrics.
	n := float64(certified)
	r.e2e["commit_tps"] = n / win.wallTotal.Seconds()
	r.e2e["commit_p50_ms"] = percentile(t.lats, 50)
	r.e2e["commit_p99_ms"] = percentile(t.lats, 99)
	r.e2e["net_bytes_per_txn"] = float64(t.bytesOut) / n
	win.hostMetrics(r, certified)
	r.notef("latency samples: n=%d requests over %d deployments; %d beyond p50, %d beyond p99 (a tail needs %d)",
		len(t.lats), segments, samplesBeyond(len(t.lats), 50), samplesBeyond(len(t.lats), 99), minBeyond)

	// Per-layer counts. Those read from node counters cover each
	// deployment's whole life (set-up request and warm-up included): the
	// counters are only readable through Status, whose state hash is too
	// costly to take at a window's edges.
	entries, txns := float64(t.entries), float64(t.committed+t.aborted)
	r.layer["core.stalled_s"] = float64(t.stalledSeconds)
	r.layer["core.drain_virt_s"] = t.quiet.Seconds()
	r.layer["forensics.report_ms"] = t.reportMS
	if entries > 0 {
		r.layer["core.fetch_retries_per_kentry"] = 1000 * float64(t.counters["fetch-retries"]) / entries
		r.layer["replication.repair_reqs_per_kentry"] = 1000 * float64(t.counters["repair-reqs"]) / entries
		r.layer["gateway.txns_per_entry"] = txns / entries
		r.layer["aria.abort_share"] = float64(t.aborted) / txns
	}
	r.layer["core.slot_catchups"] = float64(t.counters["slot-catchups"])
	r.layer["core.state_transfers"] = float64(t.counters["state-transfers"])
	r.layer["core.view_retries"] = float64(t.counters["proposal-retries"] + t.counters["record-retries"])
	r.layer["gateway.resubmits_per_ktxn"] = 1000 * float64(t.resubmits) / n
	if submitted := t.counters["gateway-submitted"]; submitted > 0 {
		r.layer["gateway.rejected_share"] = float64(t.counters["gateway-rejected-rate"]+t.counters["gateway-rejected-overload"]) / float64(submitted)
	}
	r.layer["transport.bytes_out_per_txn"] = r.e2e["net_bytes_per_txn"]
	r.layer["transport.queue_drops"] = float64(t.drops)
	return r, nil
}
