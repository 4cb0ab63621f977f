// Tampering: a close-up of MassBFT's optimistic entry rebuild (§IV-C) at the
// library level, without the full cluster. Byzantine senders encode a
// tampered entry into valid-looking chunks; the receiver's collector sorts
// chunks into Merkle-root buckets, rejects the tampered bucket against the
// PBFT certificate, bans its chunk IDs, and still rebuilds the honest entry.
//
//	go run ./examples/tampering
package main

import (
	"fmt"
	"log"

	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/replication"
	"massbft/internal/types"
)

func main() {
	// A 4-node sender group and a 7-node receiver group — the paper's Fig 5
	// case study.
	pairs, reg, err := keys.GenerateCluster([]int{4, 7}, 2025)
	if err != nil {
		log.Fatal(err)
	}
	p, err := plan.New(4, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p)

	// The honest entry, certified by group 0's local PBFT (2f+1 = 3 sigs).
	entry := &types.Entry{ID: types.EntryID{GID: 0, Seq: 1}}
	for i := 0; i < 10; i++ {
		entry.Txns = append(entry.Txns, types.Transaction{
			Client:  uint64(i),
			Payload: []byte(fmt.Sprintf("transfer #%d", i)),
		})
	}
	digest := entry.Digest()
	cert := &keys.Certificate{Group: 0, Digest: digest}
	for j := 0; j < reg.QuorumSize(0); j++ {
		cert.Sigs = append(cert.Sigs, keys.SignCertificate(pairs[0][j], 0, digest))
	}

	honest, err := replication.Encode(entry.Encode(), p)
	if err != nil {
		log.Fatal(err)
	}

	// The Byzantine version: same entry ID, different content, and the
	// honest certificate replayed with it (§VI-E).
	evil := &types.Entry{ID: entry.ID, Txns: []types.Transaction{{Payload: []byte("steal everything")}}}
	evilEnc, err := replication.Encode(evil.Encode(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("honest Merkle root: %v\n", honest.Tree.Root())
	fmt.Printf("tampered root:      %v (different => separate bucket)\n\n", evilEnc.Tree.Root())

	// A receiver-group node collects chunks.
	var delivered []replication.Rebuilt
	collector := replication.NewCollector(reg,
		func(sg int) *plan.Plan { return p },
		func(sg int, r replication.Rebuilt) { delivered = append(delivered, r) })
	var bannedIDs []int
	collector.SetOnFailure(func(id types.EntryID, chunkIDs []int) {
		bannedIDs = chunkIDs
	})

	// Byzantine senders (node 3 of the sender group plus colluding
	// receivers) flood 13 tampered chunks — exactly n_data, enough to
	// trigger an optimistic rebuild.
	for c := 0; c < p.Data; c++ {
		collector.AddBatch(oneChunk(evilEnc, c, entry.ID, cert))
	}
	fmt.Printf("after %d tampered chunks: delivered=%d (rebuild attempted and REJECTED)\n",
		p.Data, len(delivered))
	fmt.Printf("banned chunk IDs: %v\n\n", bannedIDs)

	// Honest nodes transmit their chunks; despite the banned IDs, enough
	// unbanned honest chunks remain (28 total - 13 banned = 15 >= 13).
	for c := 0; c < p.Total; c++ {
		collector.AddBatch(oneChunk(honest, c, entry.ID, cert)) // banned/delivered errors expected
	}
	if len(delivered) != 1 {
		log.Fatalf("honest entry not delivered (got %d deliveries)", len(delivered))
	}
	got := delivered[0].Entry
	if got.Digest() != digest {
		log.Fatal("delivered entry does not match the certified digest")
	}
	rebuilds, failures, rejected := collector.Stats()
	fmt.Printf("honest entry rebuilt and certificate-validated: %q...\n", got.Txns[0].Payload)
	fmt.Printf("collector stats: %d rebuilds, %d failed attempts, %d rejected chunks\n",
		rebuilds, failures, rejected)
}

// oneChunk is chunk c of an encoding as it travels: a ChunkBatch of one
// index, whose multiproof is the chunk's sibling path.
func oneChunk(e *replication.Encoded, c int, id types.EntryID, cert *keys.Certificate) *replication.ChunkBatch {
	b, err := e.Batch([]int{c}, id, cert)
	if err != nil {
		log.Fatal(err)
	}
	return &b
}
