package workload

import (
	"fmt"
	"math/rand"

	"massbft/internal/aria"
	"massbft/internal/statedb"
	"massbft/internal/types"
)

// TPC-C parameters from §VI: 128 warehouses, a 50% NewOrder / 50% Payment
// mix. The schema is the standard one reduced to the tables these two
// transactions touch: warehouse YTD, district (next order ID + YTD),
// customer balance, stock quantity, and order records.
const (
	DefaultWarehouses    = 128
	tpccDistrictsPerWH   = 10
	tpccCustomersPerDist = 3000
	tpccItems            = 100_000
	tpccMaxOrderLines    = 15
	tpccMinOrderLines    = 5
)

// TPC-C transaction types.
const (
	tpccNewOrder = 0x01
	tpccPayment  = 0x02
)

// TPCC is the order-processing workload. Payment updates the warehouse and
// district YTD totals — the hotspot the paper blames for MassBFT's elevated
// abort rate under large batches (§VI-A).
type TPCC struct {
	warehouses uint64
	rng        *rand.Rand
}

// NewTPCC creates the workload.
func NewTPCC(warehouses uint64, seed int64) *TPCC {
	return &TPCC{warehouses: warehouses, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Workload.
func (t *TPCC) Name() string { return "tpcc" }

// Load implements Workload (records lazily initialize: stock reads as 100,
// balances and YTDs as 0, next order IDs as 1).
func (t *TPCC) Load(db *statedb.Store) {}

func whKey(w uint64) storeKey           { return key("tp:w:", w) }
func distKey(w, d uint64) storeKey      { return key("tp:d:", w, d) }
func distNextOKey(w, d uint64) storeKey { return key("tp:no:", w, d) }
func custKey(w, d, c uint64) storeKey   { return key("tp:c:", w, d, c) }
func stockKey(w, i uint64) storeKey     { return key("tp:s:", w, i) }
func orderKey(w, d, o uint64) storeKey  { return key("tp:o:", w, d, o) }

// Next implements Workload.
//
// NewOrder payload: 0x01 | wid(8) | did(8) | cid(8) | nLines(1) | nLines × (item(8) | qty(1))
// Payment payload:  0x02 | wid(8) | did(8) | cid(8) | amount(8)
func (t *TPCC) Next(client uint64) types.Transaction {
	w := t.rng.Uint64() % t.warehouses
	d := t.rng.Uint64() % tpccDistrictsPerWH
	c := t.rng.Uint64() % tpccCustomersPerDist
	var payload []byte
	if t.rng.Intn(2) == 0 {
		n := tpccMinOrderLines + t.rng.Intn(tpccMaxOrderLines-tpccMinOrderLines+1)
		payload = make([]byte, 26+n*9)
		payload[0] = tpccNewOrder
		putU64(payload[1:], w)
		putU64(payload[9:], d)
		putU64(payload[17:], c)
		payload[25] = byte(n)
		off := 26
		for i := 0; i < n; i++ {
			putU64(payload[off:], t.rng.Uint64()%tpccItems)
			payload[off+8] = byte(t.rng.Intn(10) + 1)
			off += 9
		}
	} else {
		payload = make([]byte, 33)
		payload[0] = tpccPayment
		putU64(payload[1:], w)
		putU64(payload[9:], d)
		putU64(payload[17:], c)
		putU64(payload[25:], uint64(t.rng.Intn(5000)+1))
	}
	return types.Transaction{
		Client:  client,
		Nonce:   t.rng.Uint64(),
		Payload: payload,
		Sig:     dummySig(t.rng),
	}
}

// Executor implements Workload.
func (t *TPCC) Executor() aria.Executor {
	return func(fp *aria.Footprint, tx *types.Transaction) (bool, error) {
		p := tx.Payload
		if len(p) < 26 {
			return false, fmt.Errorf("tpcc: short payload (%d bytes)", len(p))
		}
		w := getU64(p[1:])
		d := getU64(p[9:])
		c := getU64(p[17:])
		switch p[0] {
		case tpccNewOrder:
			n := int(p[25])
			if len(p) != 26+n*9 {
				return false, fmt.Errorf("tpcc: bad neworder size %d for %d lines", len(p), n)
			}
			noKey := distNextOKey(w, d)
			oid := uint64(readI64(fp, &noKey, 1))
			writeI64(fp, &noKey, int64(oid)+1)
			off := 26
			for i := 0; i < n; i++ {
				item := getU64(p[off:])
				qty := int64(p[off+8])
				off += 9
				sk := stockKey(w, item)
				q := readI64(fp, &sk, 100) - qty
				if q < 10 {
					q += 91
				}
				writeI64(fp, &sk, q)
			}
			ok := orderKey(w, d, oid)
			writeI64(fp, &ok, int64(c))
			return false, nil

		case tpccPayment:
			if len(p) != 33 {
				return false, fmt.Errorf("tpcc: bad payment size %d", len(p))
			}
			amount := int64(getU64(p[25:]))
			wk, dk, ck := whKey(w), distKey(w, d), custKey(w, d, c)
			writeI64(fp, &wk, readI64(fp, &wk, 0)+amount) // warehouse YTD — hotspot
			writeI64(fp, &dk, readI64(fp, &dk, 0)+amount) // district YTD
			writeI64(fp, &ck, readI64(fp, &ck, 0)-amount) // customer balance
			return false, nil
		}
		return false, fmt.Errorf("tpcc: unknown op %#x", p[0])
	}
}
