package main

// Isolated drives: each calls one layer's exported functions on inputs
// shaped like sim-sat-3x7 — one ~390-transaction ycsb-a entry and the 7->7
// transfer plan — and reports time (and, in the printed table, heap
// allocations) per operation. They give a layer a number that does not
// depend on what the other layers do; the layer shares of a traced run say
// how much that number matters.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"massbft/internal/aria"
	"massbft/internal/cluster"
	"massbft/internal/erasure"
	"massbft/internal/gateway"
	"massbft/internal/gf256"
	"massbft/internal/keys"
	"massbft/internal/ledger"
	"massbft/internal/merkle"
	"massbft/internal/order"
	"massbft/internal/pbft"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/statedb"
	"massbft/internal/transport"
	"massbft/internal/transport/tcp"
	"massbft/internal/types"
	"massbft/internal/workload"
)

const (
	driveEntryTxns = 390 // sim-sat-3x7 cuts ~390-transaction entries
	driveGroup     = 7
)

// driveResult is one drive's outcome; allocs is heap allocations per
// operation (printed, not a declared metric).
type driveResult struct {
	name   string
	value  float64
	allocs float64
}

// timeOp calls fn for about d and returns nanoseconds and heap allocations
// per call.
func timeOp(d time.Duration, fn func()) (ns, allocs float64) {
	fn() // warm caches and lazy tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var spent time.Duration
	iters, n := 0, 1
	for spent < d {
		began := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(began)
		spent += el
		iters += n
		if el < d/8 {
			n *= 2
		}
	}
	runtime.ReadMemStats(&after)
	return float64(spent.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// driveInputs are the shared sim-sat-shaped inputs.
type driveInputs struct {
	seed     int64
	pairs    [][]*keys.KeyPair
	modelled *keys.Registry // trust-all, as sim-sat-3x7 runs
	real     *keys.Registry // verifies Ed25519, as the crypto workloads run
	entry    *types.Entry
	entryEnc []byte
	plan     *plan.Plan
	cert     *keys.Certificate
}

func newDriveInputs(seed int64) (*driveInputs, error) {
	in := &driveInputs{seed: seed}
	sizes := []int{driveGroup, driveGroup, driveGroup}
	var err error
	if in.pairs, in.modelled, err = keys.GenerateCluster(sizes, seed); err != nil {
		return nil, err
	}
	in.modelled.SetTrustAll(true)
	if _, in.real, err = keys.GenerateCluster(sizes, seed); err != nil {
		return nil, err
	}
	gen, err := workload.New("ycsb-a", seed)
	if err != nil {
		return nil, err
	}
	in.entry = &types.Entry{ID: types.EntryID{GID: 0, Seq: 1}, Term: 1}
	for i := 0; i < driveEntryTxns; i++ {
		in.entry.Txns = append(in.entry.Txns, gen.Next(uint64(i%64+1)))
	}
	in.entryEnc = in.entry.Encode()
	if in.plan, err = plan.New(driveGroup, driveGroup); err != nil {
		return nil, err
	}
	d := in.entry.Digest()
	in.cert = &keys.Certificate{Group: 0, Digest: d}
	for _, kp := range in.pairs[0][:in.real.QuorumSize(0)] {
		in.cert.Sigs = append(in.cert.Sigs, keys.SignCertificate(kp, 0, d))
	}
	return in, nil
}

// runDrives runs every drive for about per each and returns one result per
// driveMetrics entry, in that order.
func runDrives(seed int64, per time.Duration) ([]driveResult, error) {
	in, err := newDriveInputs(seed)
	if err != nil {
		return nil, err
	}
	var out []driveResult
	add := func(name string, scale float64, fn func()) {
		ns, allocs := timeOp(per, fn)
		out = append(out, driveResult{name, ns * scale, allocs})
	}
	const us, ms = 1e-3, 1e-6

	// gf256 / erasure / merkle: the coding path of one entry.
	enc, err := erasure.Cached(in.plan.Data, in.plan.Parity)
	if err != nil {
		return nil, err
	}
	shards, err := enc.Split(in.entryEnc)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, len(shards[0]))
	ns, allocs := timeOp(per, func() { gf256.MulAddSlice(0x57, shards[0], dst) })
	out = append(out, driveResult{"gf256.muladd_mb_s", float64(len(dst)) / ns * 1e3, allocs})
	add("erasure.split_us", us, func() {
		if _, err := enc.Split(in.entryEnc); err != nil {
			panic(err)
		}
	})
	work := make([][]byte, len(shards))
	add("erasure.reconstruct_us", us, func() {
		// The worst case the plan allows: every parity-many data shards lost.
		copy(work, shards)
		for i := 0; i < in.plan.Parity; i++ {
			work[i] = nil
		}
		if err := enc.ReconstructData(work); err != nil {
			panic(err)
		}
	})
	tree, err := merkle.NewTree(shards)
	if err != nil {
		return nil, err
	}
	proof, err := tree.Prove(0)
	if err != nil {
		return nil, err
	}
	add("merkle.build_us", us, func() {
		if _, err := merkle.NewTree(shards); err != nil {
			panic(err)
		}
	})
	add("merkle.verify_us", us, func() {
		if !merkle.Verify(tree.Root(), tree.LeafCount(), proof, shards[0]) {
			panic("merkle proof rejected")
		}
	})

	// keys.
	kp := in.pairs[0][0]
	msg := in.cert.Digest[:]
	sig := kp.Sign(msg)
	add("keys.sign_us", us, func() { kp.Sign(msg) })
	add("keys.verify_us", us, func() {
		if !in.real.Verify(kp.ID, msg, sig) {
			panic("signature rejected")
		}
	})
	add("keys.verify_cert_us", us, func() {
		in.real.ResetCertCache()
		if err := in.real.VerifyCertificate(in.cert); err != nil {
			panic(err)
		}
	})
	add("keys.verify_cert_memo_ns", 1, func() {
		if err := in.real.VerifyCertificate(in.cert); err != nil {
			panic(err)
		}
	})

	// types.
	add("types.entry_encode_us", us, func() { in.entry.Encode() })
	add("types.entry_digest_us", us, func() { in.entry.Digest() })

	// replication: what a sender does per entry, and what a receiver does
	// from the first chunk batch to the rebuilt, validated entry.
	add("replication.encode_us", us, func() {
		e, err := replication.Encode(in.entryEnc, in.plan)
		if err == nil {
			_, _, err = e.Batches(0, in.entry.ID, in.cert)
		}
		if err != nil {
			panic(err)
		}
	})
	encoded, err := replication.Encode(in.entryEnc, in.plan)
	if err != nil {
		return nil, err
	}
	var batches []replication.ChunkBatch
	for s := 0; s < driveGroup; s++ {
		bs, _, err := encoded.Batches(s, in.entry.ID, in.cert)
		if err != nil {
			return nil, err
		}
		batches = append(batches, bs...)
	}
	planFor := func(int) *plan.Plan { return in.plan }
	add("replication.rebuild_us", us, func() {
		rebuilt := false
		col := replication.NewCollector(in.modelled, planFor, func(int, replication.Rebuilt) { rebuilt = true })
		for i := range batches {
			if rebuilt {
				break
			}
			if _, err := col.AddBatch(&batches[i]); err != nil {
				panic(err)
			}
		}
		if !rebuilt {
			panic("entry did not rebuild from every batch")
		}
	})

	// pbft: one slot from Propose until every replica delivered it.
	for _, n := range []int{4, 7} {
		g, err := newPBFTGroup(n, in.seed)
		if err != nil {
			return nil, err
		}
		slots := 0
		ns, allocs := timeOp(per, func() { g.slot(in.entryEnc); slots++ })
		out = append(out, driveResult{fmt.Sprintf("pbft.slot_us_n%d", n), ns * us, allocs})
		if n == 7 {
			out = append(out, driveResult{"pbft.msgs_per_slot_n7", float64(g.delivered) / float64(slots), 0})
		}
	}

	// order: one entry's two foreign timestamps plus its ready mark, three
	// streams advancing in step.
	ord := order.NewOrderer(3, func(types.EntryID) {})
	var seq uint64
	add("order.entry_ns", 1.0/3, func() {
		seq++
		for g := 0; g < 3; g++ {
			id := types.EntryID{GID: g, Seq: seq}
			for from := 0; from < 3; from++ {
				if from != g {
					if err := ord.OnTimestamp(from, seq, id); err != nil {
						panic(err)
					}
				}
			}
			ord.MarkReady(id)
		}
	})
	if ord.Executed() == 0 {
		return nil, fmt.Errorf("bench: order drive executed nothing")
	}

	// aria / statedb / ledger / workload.
	var db *statedb.Store
	for _, mix := range []string{"a", "b"} {
		gen, err := workload.New("ycsb-"+mix, in.seed)
		if err != nil {
			return nil, err
		}
		// 300 entries' worth: about the state a 5 virtual-second run holds.
		pool := make([][]types.Transaction, 300)
		for i := range pool {
			for k := 0; k < driveEntryTxns; k++ {
				pool[i] = append(pool[i], gen.Next(uint64(k%64+1)))
			}
		}
		store := statedb.New()
		eng := aria.NewEngine(store, gen.Executor())
		i := 0
		add("aria.txn_ns_ycsb_"+mix, 1.0/driveEntryTxns, func() {
			if _, err := eng.ExecuteBatch(pool[i%len(pool)]); err != nil {
				panic(err)
			}
			i++
		})
		if mix == "a" {
			for _, b := range pool { // make sure every entry was applied once
				if _, err := eng.ExecuteBatch(b); err != nil {
					return nil, err
				}
			}
			db = store
		}
	}
	add("statedb.hash_ms", ms, func() { db.Hash() })
	writes := make(map[string][]byte, 256)
	for i := 0; i < 256; i++ {
		writes[fmt.Sprintf("y:%d:%d", i*37, i%10)] = make([]byte, 100)
	}
	add("statedb.apply_ns_per_key", 1.0/256, func() { db.ApplyBatch(writes) })
	led := ledger.New()
	digest := in.entry.Digest()
	add("ledger.append_ns", 1, func() {
		if led.Height() >= 1<<14 { // bound the chain the drive keeps alive
			led = ledger.New()
		}
		led.Append(in.entry.ID, digest, driveEntryTxns, 0, [32]byte(digest))
	})
	gen, err := workload.New("ycsb-a", in.seed)
	if err != nil {
		return nil, err
	}
	add("workload.next_ns", 1, func() { gen.Next(1) })

	// gateway: authenticated intake of a never-seen signed request, and
	// cutting a 200-request batch.
	gwRes, err := driveGateway(in.seed, per)
	if err != nil {
		return nil, err
	}
	out = append(out, gwRes...)

	// cluster wire codec: the bulk envelope and the most frequent small one.
	commit := &cluster.LocalMsg{M: &pbft.Commit{View: 1, Slot: 42, Digest: digest,
		Share: keys.Signature{Signer: kp.ID, Sig: sig}}}
	encBatch, err := cluster.EncodeEnvelope(&batches[0])
	if err != nil {
		return nil, err
	}
	encCommit, err := cluster.EncodeEnvelope(commit)
	if err != nil {
		return nil, err
	}
	add("cluster.wire_encode_ns", 1, func() {
		if _, err := cluster.EncodeEnvelope(&batches[0]); err != nil {
			panic(err)
		}
		if _, err := cluster.EncodeEnvelope(commit); err != nil {
			panic(err)
		}
	})
	add("cluster.wire_decode_ns", 1, func() {
		if _, err := cluster.DecodeEnvelope(encBatch); err != nil {
			panic(err)
		}
		if _, err := cluster.DecodeEnvelope(encCommit); err != nil {
			panic(err)
		}
	})
	out = append(out, driveResult{"cluster.wire_bytes_chunk_batch", float64(len(encBatch)), 0})

	// transport framing of that chunk-batch envelope, and a loopback echo.
	var frame bytes.Buffer
	add("transport.frame_write_ns", 1, func() {
		frame.Reset()
		if err := transport.WriteFrame(&frame, 0, encBatch); err != nil {
			panic(err)
		}
	})
	rd := bytes.NewReader(nil)
	add("transport.frame_read_ns", 1, func() {
		rd.Reset(frame.Bytes())
		if _, _, err := transport.ReadFrame(rd); err != nil && err != io.EOF {
			panic(err)
		}
	})
	echo, err := driveTCPEcho(commit, in.seed, per)
	if err != nil {
		return nil, err
	}
	out = append(out, echo)

	// simnet: the event queue alone, 20k events resident.
	const schedOps = 200_000
	add("simnet.sched_ns_per_event", 1.0/schedOps, func() { simnet.SchedulerDrive(false, 20_000, schedOps, in.seed) })

	return out, nil
}

// pbftGroup wires n replicas through an in-memory FIFO queue.
type pbftGroup struct {
	replicas  map[keys.NodeID]*pbft.Instance
	leader    *pbft.Instance
	queue     []pbftQueued
	delivered int // messages handled, all slots
	done      int // Deliver callbacks of the current slot
}

type pbftQueued struct {
	from, to keys.NodeID
	m        pbft.Msg
}

func newPBFTGroup(n int, seed int64) (*pbftGroup, error) {
	pairs, reg, err := keys.GenerateCluster([]int{n}, seed)
	if err != nil {
		return nil, err
	}
	reg.SetTrustAll(true)
	members := make([]keys.NodeID, n)
	for j := range members {
		members[j] = keys.NodeID{Group: 0, Index: j}
	}
	g := &pbftGroup{replicas: make(map[keys.NodeID]*pbft.Instance, n)}
	for j, id := range members {
		from := id
		g.replicas[id] = pbft.New(pbft.Config{
			Self: pairs[0][j], Members: members, Registry: reg,
			Send:    func(to keys.NodeID, m pbft.Msg) { g.queue = append(g.queue, pbftQueued{from, to, m}) },
			Deliver: func(uint64, []byte, *keys.Certificate) { g.done++ },
		})
	}
	g.leader = g.replicas[members[0]]
	return g, nil
}

// slot runs one consensus slot to delivery on every replica.
func (g *pbftGroup) slot(payload []byte) {
	g.done = 0
	if err := g.leader.Propose(payload); err != nil {
		panic(err)
	}
	for len(g.queue) > 0 {
		q := g.queue[0]
		g.queue = g.queue[1:]
		g.replicas[q.to].Handle(q.from, q.m)
		g.delivered++
	}
	if g.done != len(g.replicas) {
		panic(fmt.Sprintf("pbft drive: %d of %d replicas delivered", g.done, len(g.replicas)))
	}
}

func driveGateway(seed int64, per time.Duration) ([]driveResult, error) {
	const clients, nonces, batch = 8, 256, 200
	cks, creg, err := keys.GenerateClients(clients, seed)
	if err != nil {
		return nil, err
	}
	gen, err := workload.New("ycsb-a", seed)
	if err != nil {
		return nil, err
	}
	pool := make([]types.Transaction, 0, clients*nonces)
	for nonce := uint64(1); nonce <= nonces; nonce++ {
		for _, ck := range cks {
			txn := types.Transaction{Client: ck.ID, Nonce: nonce, Payload: gen.Next(ck.ID).Payload}
			txn.Sig = ck.Sign(keys.ClientRequestMessage(txn.Client, txn.Nonce, txn.Payload))
			pool = append(pool, txn)
		}
	}
	var (
		gw                *gateway.Gateway
		next              = len(pool)
		now               = time.Unix(0, 0)
		submitNS, takeNS  time.Duration
		submits, takes    int
		before, mid, post runtime.MemStats
		submitAllocs      uint64
		takeAllocs        uint64
	)
	for began := time.Now(); time.Since(began) < 2*per || takes == 0; {
		if next+batch > len(pool) { // a fresh gateway: empty memo, empty dedup windows
			gw = gateway.New(gateway.Config{Group: 0, MaxBatch: batch, Clients: creg})
			next = 0
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for _, txn := range pool[next : next+batch] {
			if err := gw.Submit(txn, now); err != nil {
				return nil, fmt.Errorf("bench: gateway drive submit: %w", err)
			}
		}
		t1 := time.Now()
		runtime.ReadMemStats(&mid)
		t2 := time.Now()
		got := gw.TakeBatch(now, batch, true)
		t3 := time.Now()
		runtime.ReadMemStats(&post)
		if len(got) != batch {
			return nil, fmt.Errorf("bench: gateway drive cut %d of %d requests", len(got), batch)
		}
		next += batch
		submitNS, submits = submitNS+t1.Sub(t0), submits+batch
		takeNS, takes = takeNS+t3.Sub(t2), takes+1
		submitAllocs += mid.Mallocs - before.Mallocs
		takeAllocs += post.Mallocs - mid.Mallocs
	}
	return []driveResult{
		{"gateway.submit_us", float64(submitNS.Nanoseconds()) / float64(submits) / 1e3, float64(submitAllocs) / float64(submits)},
		{"gateway.take_batch_ns", float64(takeNS.Nanoseconds()) / float64(takes), float64(takeAllocs) / float64(takes)},
	}, nil
}

// driveTCPEcho times a small envelope's round trip between two transport/tcp
// endpoints on loopback: encode, frame, write, read, decode, dispatch, twice.
func driveTCPEcho(payload *cluster.LocalMsg, seed int64, per time.Duration) (driveResult, error) {
	res := driveResult{name: "transport.tcp_echo_us"}
	addrs, err := freeAddrs(2)
	if err != nil {
		return res, err
	}
	ids := []keys.NodeID{{Group: 0, Index: 0}, {Group: 0, Index: 1}}
	nets := make([]*tcp.Network, 2)
	for i := range nets {
		nets[i], err = tcp.New(tcp.Config{
			Self: ids[i], Listen: addrs[i], Peers: map[keys.NodeID]string{ids[1-i]: addrs[1-i]},
			Encode: cluster.EncodeEnvelope, Decode: cluster.DecodeEnvelope, Seed: seed,
		})
		if err != nil {
			if i == 1 {
				nets[0].Close()
			}
			return res, err
		}
	}
	defer nets[0].Close()
	defer nets[1].Close()
	size := payload.WireSize()
	back := make(chan struct{}, 1) // one echo in flight at a time
	a, b := nets[0].Endpoint(ids[0]), nets[1].Endpoint(ids[1])
	nets[0].SetHandler(ids[0], transport.HandlerFunc(func(transport.Message) { back <- struct{}{} }))
	nets[1].SetHandler(ids[1], transport.HandlerFunc(func(m transport.Message) { b.Send(ids[0], m.Payload, size) }))
	var lost error
	// The first echo also dials both directions (connections are lazy).
	ns, allocs := timeOp(per, func() {
		a.Send(ids[1], payload, size)
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			lost = fmt.Errorf("bench: tcp echo lost a message")
		}
	})
	res.value, res.allocs = ns/1e3, allocs
	return res, lost
}
