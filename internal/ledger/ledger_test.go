package ledger

import (
	"bytes"
	"testing"

	"massbft/internal/keys"
	"massbft/internal/types"
)

func eid(g int, s uint64) types.EntryID { return types.EntryID{GID: g, Seq: s} }

func appendN(l *Ledger, n int) {
	seq := make(map[int]uint64)
	for i := 0; i < n; i++ {
		g := i % 3
		seq[g]++
		l.Append(eid(g, seq[g]), keys.Hash([]byte{byte(i)}), 100, 2, [32]byte{byte(i)})
	}
}

func TestEmptyLedger(t *testing.T) {
	l := New()
	if l.Height() != 0 || l.Head() != (BlockHash{}) {
		t.Fatal("empty ledger not at genesis")
	}
	if l.Block(0) != nil || l.Block(1) != nil {
		t.Fatal("blocks on empty ledger")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendChainsBlocks(t *testing.T) {
	l := New()
	b1 := l.Append(eid(0, 1), keys.Hash([]byte("a")), 10, 0, [32]byte{1})
	b2 := l.Append(eid(1, 1), keys.Hash([]byte("b")), 20, 1, [32]byte{2})
	if b1.Height != 1 || b2.Height != 2 {
		t.Fatal("heights wrong")
	}
	if b1.Prev != (BlockHash{}) {
		t.Fatal("first block must chain from genesis")
	}
	if b2.Prev != b1.Hash() {
		t.Fatal("second block not chained")
	}
	if l.Head() != b2.Hash() {
		t.Fatal("head wrong")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHashCoversAllFields(t *testing.T) {
	base := func() *Block {
		return &Block{Height: 1, Entry: eid(0, 1), EntryDigest: keys.Hash([]byte("x")),
			Committed: 5, Aborted: 1, StateDigest: [32]byte{9}}
	}
	ref := base().Hash()
	muts := []func(*Block){
		func(b *Block) { b.Height = 2 },
		func(b *Block) { b.Prev = BlockHash{1} },
		func(b *Block) { b.Entry = eid(1, 1) },
		func(b *Block) { b.Entry = eid(0, 2) },
		func(b *Block) { b.EntryDigest = keys.Hash([]byte("y")) },
		func(b *Block) { b.Committed = 6 },
		func(b *Block) { b.Aborted = 2 },
		func(b *Block) { b.StateDigest = [32]byte{8} },
	}
	for i, mut := range muts {
		b := base()
		mut(b)
		if b.Hash() == ref {
			t.Fatalf("mutation %d did not change hash", i)
		}
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	l := New()
	appendN(l, 9)
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	// Break the chain by rewriting a middle block's digest.
	l.Block(5).EntryDigest = keys.Hash([]byte("tampered"))
	l.Block(5).hashSet = false
	if err := l.Verify(); err == nil {
		t.Fatal("tampered chain verified")
	}
}

func TestVerifyDetectsSeqRegression(t *testing.T) {
	l := New()
	l.Append(eid(0, 2), keys.Hash([]byte("a")), 1, 0, [32]byte{})
	b := l.Append(eid(0, 1), keys.Hash([]byte("b")), 1, 0, [32]byte{})
	_ = b
	if err := l.Verify(); err == nil {
		t.Fatal("sequence regression not detected")
	}
}

func TestVerifyDetectsBadHeight(t *testing.T) {
	l := New()
	appendN(l, 3)
	l.Block(2).Height = 7
	l.Block(2).hashSet = false
	if err := l.Verify(); err == nil {
		t.Fatal("bad height not detected")
	}
}

func TestDeterministicAcrossLedgers(t *testing.T) {
	a, b := New(), New()
	appendN(a, 20)
	appendN(b, 20)
	if a.Head() != b.Head() {
		t.Fatal("identical appends produced different heads")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := New()
	appendN(l, 12)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != l.Height() || got.Head() != l.Head() {
		t.Fatal("round trip changed the chain")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	l := New()
	appendN(l, 5)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncated file.
	if _, err := Load(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Fatal("truncated ledger loaded")
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Flipped byte inside a block (breaks the verified hash chain).
	bad = append([]byte(nil), data...)
	bad[16+8+3] ^= 0x01 // first block's Prev field
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted chain accepted")
	}
	// Empty reader.
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSaveLoadEmptyLedger(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height() != 0 {
		t.Fatal("empty ledger round trip gained blocks")
	}
}
