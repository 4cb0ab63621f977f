package aria

import (
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// Record runs exec on one transaction against snap and returns what it read
// and wrote in the map-based form the test oracle takes.
func Record(exec Executor, snap *statedb.Store, tx *types.Transaction) (reads []string, writes map[string][]byte, abort bool, err error) {
	fp := Footprint{slot: make(map[string]int32)}
	snap.View(func(r statedb.Reader) {
		fp.snap = r
		abort, err = exec(&fp, tx)
	})
	if err != nil || abort {
		return nil, nil, abort, err
	}
	for _, o := range fp.ops {
		if !o.write {
			reads = append(reads, fp.keys[o.slot])
			continue
		}
		if writes == nil {
			writes = make(map[string][]byte)
		}
		var v []byte
		if !o.del {
			v = append([]byte{}, fp.vals[o.off:o.off+o.n]...)
		}
		writes[fp.keys[o.slot]] = v
	}
	return reads, writes, false, nil
}
