package statedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// op is one step of a snapshot schedule: a mutator, or a snapshot lifecycle
// event.
type op struct {
	kind string // apply, batch, put, delete, snapshot, release, restore
	keys []string
	vals [][]byte
}

// runSchedule drives ops against a store with Clone() taken at each
// Snapshot() as the oracle: after every step the open snapshot must answer
// every key of the key space, and materialise, exactly as the oracle does.
// Every snapshot that a later step closed must panic on use.
func runSchedule(t *testing.T, space []string, ops []op) {
	t.Helper()
	s := New()
	var sn *Snapshot
	var oracle *Store
	var closed []*Snapshot
	for i, o := range ops {
		switch o.kind {
		case "apply":
			s.Apply(o.keys, o.vals)
		case "batch":
			w := make(map[string][]byte, len(o.keys))
			for j, k := range o.keys {
				w[k] = o.vals[j]
			}
			s.ApplyBatch(w)
		case "put":
			s.Put(o.keys[0], o.vals[0])
		case "delete":
			s.Delete(o.keys[0])
		case "snapshot":
			if sn != nil {
				closed = append(closed, sn)
			}
			oracle = s.Clone()
			sn = s.Snapshot()
		case "release":
			if sn != nil {
				sn.Release()
				closed = append(closed, sn)
				sn = nil
			}
		case "restore":
			from := New()
			from.Apply(o.keys, o.vals)
			s.Restore(from)
			if sn != nil {
				closed = append(closed, sn)
				sn = nil
			}
		default:
			t.Fatalf("unknown op %q", o.kind)
		}
		if sn == nil {
			continue
		}
		for _, k := range space {
			got, ok := sn.Get(k)
			want, wok := oracle.Get(k)
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("step %d (%s %v): snapshot Get(%q) = %q, %v; oracle %q, %v", i, o.kind, o.keys, k, got, ok, want, wok)
			}
		}
		if m := sn.Store(); m.Hash() != oracle.Hash() || m.Len() != oracle.Len() {
			t.Fatalf("step %d (%s %v): materialised snapshot differs from the oracle", i, o.kind, o.keys)
		}
	}
	for _, c := range closed {
		mustPanic(t, "Get", func() { c.Get(space[0]) })
		mustPanic(t, "Store", func() { c.Store() })
		mustPanic(t, "Delta", func() { c.Delta() })
		mustPanic(t, "Release", func() { c.Release() })
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on a closed snapshot did not panic", what)
		}
	}()
	fn()
}

// TestSnapshotScriptedSchedules pins the single-key histories a before-image
// can get wrong.
func TestSnapshotScriptedSchedules(t *testing.T) {
	v := func(s string) [][]byte { return [][]byte{[]byte(s)} }
	k := []string{"k"}
	seed := op{kind: "put", keys: k, vals: v("old")}
	snap := op{kind: "snapshot"}
	for name, ops := range map[string][]op{
		"write then delete":     {seed, snap, {kind: "put", keys: k, vals: v("new")}, {kind: "delete", keys: k}},
		"delete then rewrite":   {seed, snap, {kind: "delete", keys: k}, {kind: "put", keys: k, vals: v("new")}},
		"overwrite equal value": {seed, snap, {kind: "put", keys: k, vals: v("old")}, {kind: "apply", keys: k, vals: v("old")}},
		"absent, written, deleted": {snap, {kind: "batch", keys: k, vals: v("new")},
			{kind: "apply", keys: k, vals: [][]byte{nil}}},
		"one apply, same key twice": {seed, snap,
			{kind: "apply", keys: []string{"k", "k"}, vals: [][]byte{[]byte("a"), nil}}},
		"superseded": {seed, snap, {kind: "put", keys: k, vals: v("new")}, snap,
			{kind: "delete", keys: k}, {kind: "release"}, {kind: "put", keys: k, vals: v("z")}},
	} {
		t.Run(name, func(t *testing.T) { runSchedule(t, []string{"k", "other"}, ops) })
	}
}

// TestSnapshotDifferential: random interleavings of every mutator and every
// lifecycle event over a small key space, against the Clone oracle.
func TestSnapshotDifferential(t *testing.T) {
	space := make([]string, 8)
	for i := range space {
		space[i] = fmt.Sprintf("k%d", i)
	}
	// Few distinct values, so overwriting with an equal value is common; nil
	// deletes in Apply/ApplyBatch and is a present, empty value in Put.
	values := [][]byte{nil, {}, []byte("a"), []byte("b")}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(n int) ([]string, [][]byte) {
			ks, vs := make([]string, n), make([][]byte, n)
			for i := range ks {
				ks[i], vs[i] = space[rng.Intn(len(space))], values[rng.Intn(len(values))]
			}
			return ks, vs
		}
		ops := make([]op, 300)
		for i := range ops {
			switch r := rng.Intn(20); {
			case r < 3:
				ops[i] = op{kind: "snapshot"}
			case r < 4:
				ops[i] = op{kind: "release"}
			case r < 5:
				ks, vs := pick(3)
				ops[i] = op{kind: "restore", keys: ks, vals: vs}
			case r < 9:
				ks, vs := pick(1 + rng.Intn(4)) // repeats within one Apply included
				ops[i] = op{kind: "apply", keys: ks, vals: vs}
			case r < 12:
				ks, vs := pick(1 + rng.Intn(4))
				ops[i] = op{kind: "batch", keys: ks, vals: vs}
			case r < 16:
				ks, vs := pick(1)
				ops[i] = op{kind: "put", keys: ks, vals: vs}
			default:
				ks, _ := pick(1)
				ops[i] = op{kind: "delete", keys: ks}
			}
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runSchedule(t, space, ops) })
	}
}

// TestNilValuesRestoreAndEmptyRoundTrip: Put(k, nil) stores a present, empty
// value while Apply/ApplyBatch with nil delete, so a before-image records
// presence apart from the value; Restore closes the open view; and a
// present-empty value survives Save→Load with the Hash unchanged.
func TestNilValuesRestoreAndEmptyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name        string
		before      func(s *Store) // state when the snapshot is taken
		after       func(s *Store) // writes under the open snapshot
		wantPresent bool           // what the snapshot says about "k"
		wantLive    bool           // what the live store says about "k"
		wantClosed  bool
	}{
		{"present-empty, then deleted by Apply nil",
			func(s *Store) { s.Put("k", nil) },
			func(s *Store) { s.Apply([]string{"k"}, [][]byte{nil}) },
			true, false, false},
		{"present-empty, then deleted by ApplyBatch nil",
			func(s *Store) { s.Put("k", nil) },
			func(s *Store) { s.ApplyBatch(map[string][]byte{"k": nil}) },
			true, false, false},
		{"absent, then Put nil",
			func(s *Store) {},
			func(s *Store) { s.Put("k", nil) },
			false, true, false},
		{"Restore under an open view",
			func(s *Store) { s.Put("k", []byte("v")) },
			func(s *Store) { s.Restore(New()) },
			false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			tc.before(s)
			sn := s.Snapshot()
			tc.after(s)
			if _, ok := s.Get("k"); ok != tc.wantLive {
				t.Fatalf("live store: present = %v, want %v", ok, tc.wantLive)
			}
			if tc.wantClosed {
				mustPanic(t, "Get", func() { sn.Get("k") })
				if s.snap != nil || len(s.before) != 0 {
					t.Fatal("Restore left the snapshot's bookkeeping behind")
				}
				return
			}
			if v, ok := sn.Get("k"); ok != tc.wantPresent || len(v) != 0 {
				t.Fatalf("snapshot: %q present = %v, want empty, %v", v, ok, tc.wantPresent)
			}
			if _, ok := sn.Store().Get("k"); ok != tc.wantPresent {
				t.Fatalf("materialised snapshot: present = %v, want %v", ok, tc.wantPresent)
			}
		})
	}

	s := New()
	s.Put("empty", nil)
	s.Put("full", []byte("x"))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Get("empty"); !ok || got.Len() != 2 || got.Hash() != s.Hash() {
		t.Fatal("a present, empty value did not survive Save→Load with its Hash")
	}
}

// TestSnapshotCostCeilings pins what the checkpoint fold was bought for, on
// the structure and on allocation counts, never on timing: a snapshot of a
// large store is O(1), a steady tick allocates only its handle, the
// before-images never outgrow one tick's writes, and without a snapshot the
// mutators record nothing.
func TestSnapshotCostCeilings(t *testing.T) {
	const size, tick = 100_000, 1_000
	keys := make([]string, size)
	vals := make([][]byte, size)
	s := New()
	for i := range keys {
		keys[i] = fmt.Sprintf("user%07d", i)
		vals[i] = []byte{byte(i), byte(i >> 8)}
		s.Put(keys[i], vals[i])
	}
	var sn *Snapshot
	if n, _ := allocated(func() { sn = s.Snapshot() }); n > 2 {
		t.Fatalf("the first Snapshot() of a %d-key store allocated %d objects, want <= 2 (handle, before-image map)", size, n)
	}

	// Each tick writes the next window of keys, values already allocated. The
	// first ticks grow the before-image map to a tick's size; after that a
	// cycle allocates the 8-byte handle — what lets a superseded snapshot
	// panic instead of aliasing the new one — and nothing else.
	at := 0
	cycle := func() {
		sn = s.Snapshot()
		s.Apply(keys[at:at+tick], vals[at:at+tick])
		at = (at + tick) % size
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n > 1 {
		t.Fatalf("a steady snapshot-and-write-%d-keys tick allocates %v objects, want <= 1", tick, n)
	}

	// Bounded memory: however long it runs, the view holds one tick's writes.
	for i := 0; i < 200; i++ {
		cycle()
		if d := sn.Delta(); d != tick || len(s.before) != tick {
			t.Fatalf("tick %d: %d before-images (map length %d), want one tick's %d", i, d, len(s.before), tick)
		}
	}

	// No snapshot, no bookkeeping: the mutators' only new work is a nil check.
	sn.Release()
	s.Apply(keys, vals)
	s.ApplyBatch(map[string][]byte{keys[0]: vals[0], "fresh": {1}})
	s.Put(keys[1], vals[1])
	s.Delete("fresh")
	if s.snap != nil || len(s.before) != 0 {
		t.Fatalf("after Release: snap = %v, %d before-images; want none", s.snap, len(s.before))
	}
}

// TestSnapshotReadWhileWriting is the TCP fabric's access pattern: the
// executing goroutine applies batches and takes the snapshots, another reads
// a snapshot it was handed. Every Apply sets all keys to one generation, so a
// consistent view shows exactly the generation it was taken at. Run with
// -race.
func TestSnapshotReadWhileWriting(t *testing.T) {
	const nkeys, rounds, batchesPerRound = 64, 20, 25
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	generation := func(g int) [][]byte {
		vals := make([][]byte, nkeys)
		for i := range vals {
			vals[i] = []byte{byte(g), byte(g >> 8)}
		}
		return vals
	}
	type handed struct {
		sn  *Snapshot
		gen int
	}
	s := New()
	work := make(chan handed)
	read := make(chan struct{})
	go func() {
		defer close(read)
		for h := range work {
			want := generation(h.gen)[0]
			for _, k := range keys {
				if v, ok := h.sn.Get(k); !ok || !bytes.Equal(v, want) {
					t.Errorf("snapshot of generation %d: %s = %v, %v", h.gen, k, v, ok)
				}
			}
			if v, _ := h.sn.Store().Get(keys[0]); !bytes.Equal(v, want) {
				t.Errorf("materialised snapshot of generation %d holds %v", h.gen, v)
			}
			read <- struct{}{}
		}
	}()
	g := 0
	s.Apply(keys, generation(g))
	for r := 0; r < rounds; r++ {
		work <- handed{s.Snapshot(), g}
		for b := 0; b < batchesPerRound; b++ {
			g++
			s.Apply(keys, generation(g))
		}
		<-read // the reader is done before the next Snapshot() closes its view
	}
	close(work)
	<-read
}
