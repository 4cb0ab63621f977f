// massbft-node hosts one MassBFT protocol node as an OS process, wired to
// its peers over TCP. Every process of a cluster loads the same topology
// JSON; the shared seed makes key generation deterministic, so processes
// agree on all key material without any exchange.
//
// Minimal 4-node loopback cluster (2 groups x 2 nodes):
//
//	massbft-node -topology topo.json -group 0 -index 0 &
//	massbft-node -topology topo.json -group 0 -index 1 &
//	massbft-node -topology topo.json -group 1 -index 0 &
//	massbft-node -topology topo.json -group 1 -index 1 &
//
// Each process runs until SIGINT/SIGTERM (or -run elapses), then drains
// gracefully: client load stops, in-flight entries settle, the transport
// flushes its queues. Restart a crashed node with -rejoin so it performs
// the checkpointed-rejoin state transfer instead of starting cold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"massbft"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "path to the cluster topology JSON (required)")
		group     = flag.Int("group", -1, "group of the node this process hosts (required)")
		index     = flag.Int("index", -1, "index within the group (required)")
		listen    = flag.String("listen", "", "listen address override (default: the topology address)")
		rejoin    = flag.Bool("rejoin", false, "start via checkpointed rejoin (use when restarting a crashed node)")
		run       = flag.Duration("run", 0, "stop after this long (0 = until SIGINT/SIGTERM)")
		drain     = flag.Duration("drain", 2*time.Second, "graceful drain window on shutdown")
		statusOut = flag.String("status", "", "write a status JSON snapshot to this file periodically")
		statusInt = flag.Duration("status-interval", 500*time.Millisecond, "status file refresh interval")
		peersGlob = flag.String("peers-status", "", "glob of the peers' status files; when set, each refresh classifies cross-node agreement (converged/wedged/forked) into this node's status file and divergence counters")
		reconf    = flag.String("reconfigure", "", "admin membership trigger, \"join:G@DELAY\" or \"leave:G@DELAY\" (e.g. join:2@5s): after DELAY, broadcast the trigger for group G from this node")
		verbose   = flag.Bool("v", false, "log transport lifecycle events and state-machine transitions")
	)
	flag.Parse()
	if *topoPath == "" || *group < 0 || *index < 0 {
		flag.Usage()
		os.Exit(2)
	}
	reconfOp, reconfGroup, reconfDelay, err := parseReconfigure(*reconf)
	if err != nil {
		log.Fatalf("massbft-node: -reconfigure: %v", err)
	}

	topo, err := massbft.LoadTopology(*topoPath)
	if err != nil {
		log.Fatalf("massbft-node: %v", err)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	node, err := massbft.StartNode(massbft.NodeConfig{
		Topology: topo,
		Group:    *group,
		Index:    *index,
		Listen:   *listen,
		Rejoin:   *rejoin,
		Logf:     logf,
	})
	if err != nil {
		log.Fatalf("massbft-node: %v", err)
	}
	log.Printf("massbft-node: node (%d,%d) up, %d peers, rejoin=%v",
		*group, *index, len(topo.Nodes)-1, *rejoin)

	if reconfOp != 0 {
		op, g := reconfOp, reconfGroup
		time.AfterFunc(reconfDelay, func() {
			log.Printf("massbft-node: broadcasting reconfigure trigger (op=%d group=%d)", op, g)
			node.Reconfigure(op, g)
		})
	}

	stopStatus := make(chan struct{})
	if *statusOut != "" {
		go statusWriter(node, *statusOut, *statusInt, *peersGlob, stopStatus)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *run > 0 {
		timeout = time.After(*run)
	}
	select {
	case s := <-sig:
		log.Printf("massbft-node: %v, draining %v", s, *drain)
	case <-timeout:
		log.Printf("massbft-node: run window over, draining %v", *drain)
	}

	close(stopStatus)
	if err := node.Stop(*drain); err != nil {
		log.Printf("massbft-node: shutdown: %v", err)
	}
	if *statusOut != "" {
		writeStatus(node, *statusOut) // final snapshot reflects the drain
	}
	printSummary(node)
}

// parseReconfigure parses the -reconfigure flag ("join:G@DELAY" /
// "leave:G@DELAY"); an empty flag returns op 0.
func parseReconfigure(s string) (op byte, group int, delay time.Duration, err error) {
	if s == "" {
		return 0, 0, 0, nil
	}
	verb, rest, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want OP:GROUP@DELAY, got %q", s)
	}
	switch verb {
	case "join":
		op = massbft.ReconfigJoin
	case "leave":
		op = massbft.ReconfigLeave
	default:
		return 0, 0, 0, fmt.Errorf("unknown op %q (want join or leave)", verb)
	}
	gs, ds, ok := strings.Cut(rest, "@")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want OP:GROUP@DELAY, got %q", s)
	}
	if group, err = strconv.Atoi(gs); err != nil {
		return 0, 0, 0, fmt.Errorf("bad group %q: %v", gs, err)
	}
	if delay, err = time.ParseDuration(ds); err != nil {
		return 0, 0, 0, fmt.Errorf("bad delay %q: %v", ds, err)
	}
	return op, group, delay, nil
}

// statusWriter refreshes the status file until stopped. With a peers glob,
// each refresh also classifies cross-node agreement from the peer snapshots
// and feeds the verdict back into the node (NoteAgreement), so the *next*
// snapshot carries the verdict and the divergence counters.
func statusWriter(node *massbft.ProcNode, path string, every time.Duration, peersGlob string, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if peersGlob != "" {
				classifyPeers(node, path, peersGlob)
			}
			writeStatus(node, path)
		case <-stop:
			return
		}
	}
}

// classifyPeers reads every status snapshot matching the glob (the node's
// own file included, when already written), folds in a fresh self snapshot,
// and records the classified verdict on the node. Unreadable or torn files
// are skipped — a dead peer's stale file still classifies (it will read as
// a laggard), which is exactly what an operator wants to see.
func classifyPeers(node *massbft.ProcNode, selfPath string, glob string) {
	self, err := node.Status()
	if err != nil {
		return
	}
	sts := []massbft.NodeStatus{self}
	paths, _ := filepath.Glob(glob)
	for _, p := range paths {
		if p == selfPath {
			continue // the freshly sampled self snapshot replaces the file
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var st massbft.NodeStatus
		if json.Unmarshal(raw, &st) != nil {
			continue
		}
		if st.Group == self.Group && st.Index == self.Index {
			continue
		}
		sts = append(sts, st)
	}
	node.NoteAgreement(massbft.ClassifyStatuses(sts))
}

// writeStatus snapshots the node and writes JSON atomically (tmp + rename),
// so a concurrent reader never sees a torn file.
func writeStatus(node *massbft.ProcNode, path string) {
	st, err := node.Status()
	if err != nil {
		return
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}

func printSummary(node *massbft.ProcNode) {
	st, err := node.Status()
	if err != nil {
		// The fabric is already closed; transport stats still work.
		ts := node.TransportStats()
		fmt.Printf("transport: %+v\n", ts)
		return
	}
	fmt.Printf("final: height=%d head=%.12s state=%.12s committed=%d aborted=%d entries=%d epoch=%d active=%v\n",
		st.Height, st.Head, st.State, st.Committed, st.Aborted, st.Entries, st.Epoch, st.Active)
	ts := st.Transport
	fmt.Printf("transport: connects=%d reconnects=%d dial-failures=%d send-timeouts=%d "+
		"queue-drop-bulk=%d queue-drop-prio=%d heartbeat-misses=%d bytes-out=%d bytes-in=%d\n",
		ts.Connects, ts.Reconnects, ts.DialFailures, ts.SendTimeouts,
		ts.QueueDropBulk, ts.QueueDropPrio, ts.HeartbeatMisses, ts.BytesOut, ts.BytesIn)
	if len(st.Counters) > 0 {
		names := make([]string, 0, len(st.Counters))
		for k := range st.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("counters:")
		for _, k := range names {
			fmt.Printf(" %s=%d", k, st.Counters[k])
		}
		fmt.Println()
	}
}
