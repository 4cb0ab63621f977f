package aria

import (
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// Record runs exec on one transaction against snap and returns what it read
// and wrote in the map-based form the test oracle takes.
func Record(exec Executor, snap *statedb.Store, tx *types.Transaction) (reads []string, writes map[string][]byte, abort bool, err error) {
	var fp Footprint
	snap.View(func(r statedb.Reader) {
		fp.snap = r
		if abort, err = exec(&fp, tx); err != nil || abort {
			return
		}
		for _, o := range fp.ops {
			key := fp.key(o.slot)
			if !o.write {
				reads = append(reads, key)
				continue
			}
			if writes == nil {
				writes = make(map[string][]byte)
			}
			var v []byte
			if !o.del {
				v = append([]byte{}, fp.vals[o.off:o.off+o.n]...)
			}
			writes[key] = v
		}
	})
	return reads, writes, abort, err
}

// key returns the key slot s stands for. Only valid inside the View.
func (fp *Footprint) key(s uint32) string {
	if id := fp.slots[s].id; id < 0 {
		return string(fp.fresh.Key(^id))
	} else {
		return string(fp.snap.Key(id))
	}
}

// HashValue is the hash a ValueMemo files v under.
func HashValue(v []byte) uint64 { return hashValue(v) }

// InitialSlotKeys is how many keys a footprint's slot table holds before it
// first grows.
const InitialSlotKeys = minByID / 2
