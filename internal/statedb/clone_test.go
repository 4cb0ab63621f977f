package statedb

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// op is one step of a clone schedule: a mutator, or an event in the life of
// the held clone.
type op struct {
	kind string // apply, batch, put, delete, clone, drop, restore
	keys []string
	vals [][]byte
}

// runSchedule drives ops against a store. At each "clone" step it takes a
// Clone and records what the store answered then for every key of the key
// space; after every later step the held clone must answer, count and hash
// exactly that, whatever the store was written or restored to since. A Clone
// is the store's one point-in-time copy: what a state transfer ships while
// the serving node executes on.
func runSchedule(t *testing.T, space []string, ops []op) {
	t.Helper()
	s := New()
	var held *Store
	var then map[string][]byte // the present keys when held was taken
	var thenHash [32]byte
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
		case "clone":
			held, then, thenHash = s.Clone(), map[string][]byte{}, s.Hash()
			for _, k := range space {
				if v, ok := s.Get(k); ok {
					then[k] = v
				}
			}
		case "drop":
			held = nil
		case "restore":
			from := New()
			from.Apply(o.keys, o.vals)
			s.Restore(from)
		default:
			t.Fatalf("unknown op %q", o.kind)
		}
		if held == nil {
			continue
		}
		for _, k := range space {
			got, ok := held.Get(k)
			want, wok := then[k]
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("step %d (%s %v): clone Get(%q) = %q, %v; when taken %q, %v", i, o.kind, o.keys, k, got, ok, want, wok)
			}
		}
		if held.Hash() != thenHash || held.Len() != len(then) {
			t.Fatalf("step %d (%s %v): the clone no longer hashes or counts as its source did when taken", i, o.kind, o.keys)
		}
	}
}

// TestSnapshotScriptedSchedules pins the single-key histories a copy that
// shared a record with its source would get wrong.
func TestSnapshotScriptedSchedules(t *testing.T) {
	v := func(s string) [][]byte { return [][]byte{[]byte(s)} }
	k := []string{"k"}
	seed := op{kind: "put", keys: k, vals: v("old")}
	clone := op{kind: "clone"}
	for name, ops := range map[string][]op{
		"write then delete":     {seed, clone, {kind: "put", keys: k, vals: v("new")}, {kind: "delete", keys: k}},
		"delete then rewrite":   {seed, clone, {kind: "delete", keys: k}, {kind: "put", keys: k, vals: v("new")}},
		"overwrite equal value": {seed, clone, {kind: "put", keys: k, vals: v("old")}, {kind: "apply", keys: k, vals: v("old")}},
		"absent, written, deleted": {clone, {kind: "batch", keys: k, vals: v("new")},
			{kind: "apply", keys: k, vals: [][]byte{nil}}},
		"one apply, same key twice": {seed, clone,
			{kind: "apply", keys: []string{"k", "k"}, vals: [][]byte{[]byte("a"), nil}}},
		"superseded": {seed, clone, {kind: "put", keys: k, vals: v("new")}, clone,
			{kind: "delete", keys: k}, {kind: "drop"}, {kind: "put", keys: k, vals: v("z")}},
	} {
		t.Run(name, func(t *testing.T) { runSchedule(t, []string{"k", "other"}, ops) })
	}
}

// TestSnapshotDifferential: random interleavings of every mutator, Restore,
// and taking and dropping a clone over a small key space.
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
				ops[i] = op{kind: "clone"}
			case r < 4:
				ops[i] = op{kind: "drop"}
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
// value while Apply/ApplyBatch with nil delete, so a record keeps presence
// apart from the value, in the store and in a clone taken before the write;
// Restore replaces the store's records and not the clone's; and a
// present-empty value survives Save→Load with the Hash unchanged.
func TestNilValuesRestoreAndEmptyRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name        string
		before      func(s *Store) // state when the clone is taken
		after       func(s *Store) // writes to the store after it
		wantPresent bool           // what the clone says about "k"
		wantLive    bool           // what the live store says about "k"
	}{
		{"present-empty, then deleted by Apply nil",
			func(s *Store) { s.Put("k", nil) },
			func(s *Store) { s.Apply([]string{"k"}, [][]byte{nil}) },
			true, false},
		{"present-empty, then deleted by ApplyBatch nil",
			func(s *Store) { s.Put("k", nil) },
			func(s *Store) { s.ApplyBatch(map[string][]byte{"k": nil}) },
			true, false},
		{"absent, then Put nil",
			func(s *Store) {},
			func(s *Store) { s.Put("k", nil) },
			false, true},
		{"Restore under a held clone",
			func(s *Store) { s.Put("k", nil) },
			func(s *Store) { s.Restore(New()) },
			true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			tc.before(s)
			c := s.Clone()
			tc.after(s)
			if _, ok := s.Get("k"); ok != tc.wantLive {
				t.Fatalf("live store: present = %v, want %v", ok, tc.wantLive)
			}
			if v, ok := c.Get("k"); ok != tc.wantPresent || len(v) != 0 {
				t.Fatalf("clone: %q present = %v, want empty, %v", v, ok, tc.wantPresent)
			}
			if n := c.Len(); (n == 1) != tc.wantPresent {
				t.Fatalf("clone: Len %d, want present = %v", n, tc.wantPresent)
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

// TestSnapshotReadWhileWriting is the TCP fabric's access pattern for a state
// transfer: the executing goroutine applies batches and takes the clones,
// another reads and saves a clone it was handed. Every Apply sets all keys to
// one generation, so an independent copy shows exactly the generation it was
// taken at. Run with -race.
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
		c   *Store
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
				if v, ok := h.c.Get(k); !ok || !bytes.Equal(v, want) {
					t.Errorf("clone of generation %d: %s = %v, %v", h.gen, k, v, ok)
				}
			}
			if err := h.c.Save(io.Discard); err != nil {
				t.Error(err)
			}
			read <- struct{}{}
		}
	}()
	g := 0
	s.Apply(keys, generation(g))
	for r := 0; r < rounds; r++ {
		work <- handed{s.Clone(), g}
		for b := 0; b < batchesPerRound; b++ {
			g++
			s.Apply(keys, generation(g))
		}
		<-read
	}
	close(work)
	<-read
}
