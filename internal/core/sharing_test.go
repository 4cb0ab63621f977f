package core

import (
	"bytes"
	"testing"
	"time"

	"massbft/internal/cluster"
	"massbft/internal/keys"
	"massbft/internal/replication"
	"massbft/internal/simnet"
	"massbft/internal/types"
)

// TestFollowersShareTheProposersEntry: in a fault-free 3×4 run every member
// of a group delivers the very *types.Entry its leader built, taken from the
// process's decode memo instead of decoded again; a payload whose bytes
// differ from the memo's (a tampered copy of the same entry) is decoded on
// its own and never answered with the leader's entry.
func TestFollowersShareTheProposersEntry(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	node := func(g, j int) *Node { return c.Nodes[keys.NodeID{Group: g, Index: j}].(*Node) }
	compared := 0
	for at := time.Second; at <= cfg.RunFor; at += 50 * time.Millisecond {
		c.RunUntil(at)
		for g, size := range cfg.GroupSizes {
			for id, st := range node(g, 0).entries {
				if id.GID != g || !st.content {
					continue
				}
				for j := 1; j < size; j++ {
					fst := node(g, j).entries[id]
					if fst == nil || !fst.content {
						continue
					}
					if fst.entry != st.entry {
						t.Fatalf("at %v: N%d,%d delivered its own decode of %v, not its leader's entry", at, g, j, id)
					}
					compared++
				}
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d follower deliveries compared", compared)
	}

	leader, follower := node(0, 0), node(0, 1)
	id := types.EntryID{GID: 0, Seq: leader.local.NextSlot()} // seq = slot + 1
	d, ok := follower.ctx.DecodeMemo.Get(id)
	if !ok {
		t.Fatalf("the decode memo does not hold %v, the leader's last proposal", id)
	}
	honest := append([]byte(nil), d.Payload...)
	if got := follower.localEntry(honest); got != d.Entry {
		t.Fatal("an equal copy of the proposed bytes was decoded again")
	}
	evil := cluster.Tamper(d.Entry)
	got := follower.localEntry(evil)
	if got == nil || got == d.Entry || !bytes.Equal(got.Encode(), evil) {
		t.Fatal("tampered bytes were not decoded on their own")
	}
	if again := follower.localEntry(honest); again == got || !bytes.Equal(again.Encode(), honest) {
		t.Fatal("the honest bytes were answered with the tampered entry")
	}
}

// TestArchivedBytesSurviveByzantineSenders: chunks alias the certified entry
// bytes, and in the simulator every node holds the same buffer, so nothing on
// the chunk path may write into a chunk. Under colluding §VI-E Byzantine
// followers (ScheduleByzantine: every chunk batch they send, forwards
// included, carries the tamper encoding) and a sender whose outbound chunk
// batches get one byte flipped in flight, every node's archived bytes and
// every delivered entry's bytes must still hash to the digest their
// certificate covers.
func TestArchivedBytesSurviveByzantineSenders(t *testing.T) {
	t.Parallel()
	cfg := smallCfg()
	cfg.RepairTimeout = 300 * time.Millisecond
	c, err := cluster.New(cfg, NewNode)
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleByzantine(time.Second, 1)
	flip := func(b *replication.ChunkBatch) *replication.ChunkBatch {
		// A Byzantine sender's own copy: the batch and its chunks are the
		// honest node's, shared with its archive.
		cp := *b
		cp.Chunks = append([][]byte(nil), b.Chunks...)
		chunk := append([]byte(nil), cp.Chunks[0]...)
		chunk[len(chunk)/2] ^= 0x5a
		cp.Chunks[0] = chunk
		return &cp
	}
	flipped := int64(0)
	c.Net.SetByzantineSender(keys.NodeID{Group: 2, Index: 2}, simnet.ByzantineSender{
		CorruptRate: 0.5,
		Corrupt: func(p any, _ uint64) any {
			switch m := p.(type) {
			case *replication.ChunkBatch:
				flipped++
				return flip(m)
			case *cluster.BatchFwd:
				flipped++
				return &cluster.BatchFwd{B: flip(m.B)}
			}
			return nil
		},
	})
	c.Run()
	c.Drain(2 * time.Second)
	m := c.Metrics
	if flipped == 0 {
		t.Fatal("no chunk batch was corrupted in flight")
	}
	// The rest of net-corrupted are the batches the §VI-E senders tampered.
	if m.Counter("net-corrupted") <= flipped {
		t.Fatalf("the Byzantine followers tampered no batch: %s", m.Summary())
	}
	checked := 0
	for id, raw := range c.Nodes {
		n := raw.(*Node)
		for eid, a := range n.archive {
			if keys.Hash(a.enc) != a.cert.Digest {
				t.Fatalf("%v: archived %v no longer hashes to its certificate's digest", id, eid)
			}
			checked++
		}
		for eid, st := range n.entries {
			if st.content && st.cert != nil && keys.Hash(st.enc) != st.cert.Digest {
				t.Fatalf("%v: delivered %v no longer hashes to its certificate's digest", id, eid)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no archived entry to check")
	}
	assertConsistency(t, c, nil)
}
