package replication

import (
	"bytes"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/plan"
	"massbft/internal/types"
)

// FuzzSeededCollector: a collector on a memo the honest sender seeded and a
// collector with no memo take the same batches of an entry built from the
// fuzz bytes — honest, or with one chunk byte flipped, some batches claiming
// another DataLen, or some batches dropped — and decide alike: the same
// verdict on every batch, the same delivery, the same bytes and certificate,
// the same failed-rebuild and rejected-chunk counts. What the seeded one
// delivers is the seed's buffer.
func FuzzSeededCollector(f *testing.F) {
	pairs, reg, err := keys.GenerateCluster([]int{4, 7}, 99)
	if err != nil {
		f.Fatal(err)
	}
	// Modelled crypto, as in a simulated cluster that does not run real
	// signatures: the collectors still match each certificate's digest and
	// group, and an input costs no Ed25519.
	keys.ModelSigning(pairs)
	reg.SetTrustAll(true)
	p, err := plan.New(4, 7)
	if err != nil {
		f.Fatal(err)
	}
	// Each fuzz byte b is one transaction of b bytes: a short input makes an
	// entry of up to 8 KB, and the minimizer has little to shrink.
	sizes := []byte{200, 17, 0, 255, 64, 3, 99}
	f.Add(sizes, uint16(0), int8(0), uint32(0), uint32(0))
	f.Add(sizes, uint16(5), int8(0), uint32(0), uint32(0))           // a flipped chunk byte
	f.Add(sizes, uint16(0), int8(-7), uint32(0b111), uint32(0))      // three batches lie about DataLen
	f.Add(sizes, uint16(0), int8(3), uint32(0xffffffff), uint32(0))  // every batch lies
	f.Add(sizes[:2], uint16(0), int8(0), uint32(0), uint32(0b10110)) // dropped batches
	f.Add([]byte{}, uint16(1), int8(-128), uint32(1), uint32(1))
	f.Fuzz(func(t *testing.T, data []byte, flip uint16, lie int8, liars, drop uint32) {
		if len(data) > 32 {
			data = data[:32]
		}
		e := &types.Entry{ID: types.EntryID{GID: 0, Seq: 3}, Term: 1}
		for i, b := range data {
			e.Txns = append(e.Txns, types.Transaction{Client: uint64(i), Payload: bytes.Repeat([]byte{b}, int(b))})
		}
		enc := e.Encode()
		d := keys.Hash(enc)
		cert := &keys.Certificate{Group: 0, Digest: d}
		for j := 0; j < reg.QuorumSize(0); j++ {
			cert.Sigs = append(cert.Sigs, keys.SignCertificate(pairs[0][j], 0, d))
		}
		encd, err := Encode(enc, p)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewRebuildMemo(4)
		Seed(memo, encd, e, enc, d)

		var batches []ChunkBatch
		for i := 0; i < p.SenderNodes; i++ {
			bs, _, err := encd.Batches(i, e.ID, cert)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, bs...)
		}
		if flip != 0 {
			// A copy of the chunk: the batches share the encoding's shards.
			b := &batches[int(flip)%len(batches)]
			b.Chunks = append([][]byte(nil), b.Chunks...)
			chunk := append([]byte(nil), b.Chunks[0]...)
			chunk[int(flip>>4)%len(chunk)] ^= 1 << (flip % 8)
			b.Chunks[0] = chunk
		}
		planFor := func(sg int) *plan.Plan {
			if sg == 0 {
				return p
			}
			return nil
		}
		var fromSeed, fromDecode []Rebuilt
		sc := NewCollector(reg, planFor, func(_ int, r Rebuilt) { fromSeed = append(fromSeed, r) })
		sc.SetMemo(memo)
		dc := NewCollector(reg, planFor, func(_ int, r Rebuilt) { fromDecode = append(fromDecode, r) })
		for k, b := range batches {
			if k < 32 && drop&(1<<k) != 0 {
				continue
			}
			if k < 32 && liars&(1<<k) != 0 {
				b.DataLen += int(lie)
			}
			sFwd, sErr := sc.AddBatch(&b)
			dFwd, dErr := dc.AddBatch(&b)
			if sFwd != dFwd || sErr != dErr {
				t.Fatalf("batch %d: seeded (%v, %v), decoding (%v, %v)", k, sFwd, sErr, dFwd, dErr)
			}
		}
		if len(fromSeed) != len(fromDecode) {
			t.Fatalf("seeded delivered %d, decoding %d", len(fromSeed), len(fromDecode))
		}
		if len(fromSeed) == 1 {
			s, d := fromSeed[0], fromDecode[0]
			if !bytes.Equal(s.Enc, d.Enc) || !certEqual(s.Cert, d.Cert) || s.Entry.ID != d.Entry.ID {
				t.Fatal("seeded and decoding collectors delivered different entries")
			}
			if &s.Enc[0] != &enc[0] {
				t.Fatal("the seeded collector delivered a copy, not the seeded bytes")
			}
		}
		sr, sf, sj := sc.Stats()
		dr, df, dj := dc.Stats()
		if sr != dr || sf != df || sj != dj {
			t.Fatalf("stats: seeded %d/%d/%d, decoding %d/%d/%d", sr, sf, sj, dr, df, dj)
		}
	})
}
