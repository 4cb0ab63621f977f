package main

// Layer attribution of CPU and allocation profiles.
//
// A flat fold (by leaf function) of a protocol run books most samples to
// the Go runtime (map access, memmove, malloc) and to crypto/sha256, and
// leaves layers such as pbft at zero. Every sample is therefore booked to
// the INNERMOST frame of its stack that belongs to this repository: a
// SHA-256 block computed for a Merkle tree is merkle's cost, a map insert
// made by Aria is aria's. Garbage-collection work is the one exception: it
// is booked to runtime.gc even when it runs on a mutator's stack (an
// allocation assist), because the allocating layer did not choose it.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the rows of the per-layer table: the repository's internal
// packages, "massbft" for the root package (node.go, gwserver.go,
// client.go, and the thin simulator facade), "runtime.gc", and "other" for
// samples that touch no repository frame (the harness itself, idle runtime
// scheduling).
var layers = []string{
	"gf256", "erasure", "merkle", "keys", "pbft", "order", "replication",
	"aria", "statedb", "ledger", "workload", "gateway", "cluster", "core",
	"simnet", "transport", "trace", "metrics", "types", "plan", "forensics",
	"massbft", "runtime.gc", "other",
}

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// gcFrames mark a stack as garbage-collection work wherever they appear
// below the first repository frame.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcDrain":        true,
	"runtime.gcMarkDone":     true,
	"runtime.gcStart":        true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.GC":             true,
}

// frameLayer maps one function name to its layer, "" when the function is
// not part of this repository.
func frameLayer(fn string) string {
	const internal = "massbft/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if layerSet[rest] {
			return rest
		}
		return "other"
	case strings.HasPrefix(fn, "massbft."):
		return "massbft"
	}
	return ""
}

// stackSample is one profile sample: function names leaf first, and the
// sample's weight (CPU nanoseconds or allocated objects).
type stackSample struct {
	stack []string
	value float64
}

// stackLayer books a whole stack (leaf first) to one layer.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime.gc"
		}
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// foldShares returns every layer's share of the samples' total weight; the
// shares sum to 1 (all zero when the profile is empty).
func foldShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	var total float64
	for _, s := range samples {
		out[stackLayer(s.stack)] += s.value
		total += s.value
	}
	for _, l := range layers {
		if total > 0 {
			out[l] /= total
		} else {
			out[l] = 0
		}
	}
	return out
}

// ---- pprof CPU profile decoding -------------------------------------------
//
// runtime/pprof writes gzip-compressed profile.proto. The module may not add
// dependencies, so the few fields the fold needs are decoded by hand:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line        Line: 1 function_id
//	Function: 1 id, 2 name (string_table index)

var errProto = errors.New("bench: malformed profile")

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped (profile.proto
// has none the fold needs).
func (p *protoBuf) next() (field int, v uint64, bytes []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errProto
		}
		bytes, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return field, v, bytes, err
}

// repeatedVarint appends a repeated scalar field that may arrive packed
// (bytes != nil) or one element at a time.
func repeatedVarint(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	p := protoBuf{packed}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeCPUProfile turns a runtime/pprof CPU profile into stack samples
// weighted by CPU nanoseconds (the profile's last value column).
func decodeCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		field, _, msg, err := top.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			m := protoBuf{msg}
			for len(m.b) > 0 {
				f, v, b, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, v, b); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarint(s.values, v, b); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoBuf{msg}
			for len(m.b) > 0 {
				f, v, b, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{b}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoBuf{msg}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: float64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// ---- allocation profile ---------------------------------------------------

// allocSnapshot is the sampled allocation profile at one instant: scaled
// allocated-object counts keyed by call stack.
type allocSnapshot map[[32]uintptr]float64

// snapshotAllocs reads runtime.MemProfile. The profile only covers
// allocations up to the last completed GC cycle, so the caller runs
// runtime.GC first; that is acceptable in the traced run, whose end-to-end
// numbers are not the ones reported.
func snapshotAllocs() allocSnapshot {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	rate := float64(runtime.MemProfileRate)
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		// Undo the sampling bias the way runtime/pprof does: an allocation
		// of average size s is sampled with probability 1-exp(-s/rate).
		objs := float64(r.AllocObjects)
		if rate > 1 {
			avg := float64(r.AllocBytes) / objs
			objs /= 1 - math.Exp(-avg/rate)
		}
		snap[r.Stack0] += objs
	}
	return snap
}

// allocSamples returns the objects allocated between two snapshots as
// stack samples.
func allocSamples(before, after allocSnapshot) []stackSample {
	var out []stackSample
	for key, objs := range after {
		d := objs - before[key]
		if d <= 0 {
			continue
		}
		pcs := key[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		ss := stackSample{value: d}
		frames := runtime.CallersFrames(pcs)
		for {
			fr, more := frames.Next()
			if fr.Function != "" {
				ss.stack = append(ss.stack, fr.Function)
			}
			if !more {
				break
			}
		}
		out = append(out, ss)
	}
	return out
}
