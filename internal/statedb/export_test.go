package statedb

// CountWork runs fn and returns how many keys it hashed, how many key-table
// probes (on any index or Table) it made, and how many keys it filed in an
// Index. Not for concurrent use.
func CountWork(fn func()) (hashes, probes, inserts int) {
	counts = new(struct{ hashes, probes, inserts int })
	defer func() { counts = nil }()
	fn()
	return counts.hashes, counts.probes, counts.inserts
}

// InlineKey is the longest key an index holds in its key record.
const InlineKey = inlineKey
