package massbft

import (
	"fmt"
	"testing"
	"time"
)

// TestTransportSeamBitIdentical pins fixed-seed cluster runs to fingerprints
// captured BEFORE the transport seam existed (nodes wired straight into
// simnet.Network). The transport interface indirection, the SimNetwork
// adapter, and the handler relabeling must not perturb a single scheduling
// decision, rng draw, or allocation: committed counts, ledger height, head
// hash, and state hash must all match byte-for-byte.
//
// If this fails after an intentional protocol change, re-capture the
// fingerprints in the same change; if it fails after a transport change,
// the seam leaked into the simulation — fix the transport.
func TestTransportSeamBitIdentical(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	base := func() Config {
		return Config{
			Groups:   []int{3, 3},
			Workload: "ycsb-a",
			Seed:     42,
			Warmup:   500 * time.Millisecond,
		}
	}
	faulty := base()
	faulty.WANDropRate = 0.05
	faulty.LANDropRate = 0.01
	faulty.FaultJitter = 0.1
	faulty.ViewChangeTimeout = 400 * time.Millisecond
	faulty.TakeoverTimeout = 400 * time.Millisecond
	faulty.RepairTimeout = 150 * time.Millisecond
	faulty.CheckpointInterval = 500 * time.Millisecond
	baseline := base()
	baseline.Protocol = ProtocolBaseline

	cases := []struct {
		name      string
		cfg       Config
		committed int64
		entries   int64
		height    uint64
		head      string
		state     string
	}{
		{
			name: "massbft", cfg: base(),
			committed: 97285, entries: 250, height: 299,
			head:  "2ab7f3dc327d328a1ef251b28c1762d78f27d05d270e1fd223c16d2d397392fd",
			state: "b51fc7e790171db3799a1fab9f08134ea75b980944b1217a2ea964a49fea8d28",
		},
		{
			name: "baseline", cfg: baseline,
			committed: 81712, entries: 210, height: 298,
			head:  "a159dbeeb463749b59f2bf713c3559b9c481fbde813bcb20520c980fc1e71072",
			state: "0d9de969abf7f642657a68ba0c906bfc08c2eee4ad7b2b53a2ceebf287148053",
		},
		{
			name: "massbft-faults", cfg: faulty,
			committed: 92601, entries: 238, height: 291,
			head:  "25641578f74ab8639a7089c7e20e8d55e70031a41236065ea71046a75fda119e",
			state: "6068113585108581fc7c9e191841bff48e68a6cc0e4df4d145ab4c108ee2dd5b",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := c.Run(3 * time.Second)
			c.Drain(2 * time.Second)
			li := c.Ledger(0, 0)
			sh := c.StateHash(0, 0)
			got := fmt.Sprintf("committed=%d entries=%d height=%d head=%x state=%x",
				res.Committed, res.Entries, li.Height, li.Head[:], sh[:])
			want := fmt.Sprintf("committed=%d entries=%d height=%d head=%s state=%s",
				tc.committed, tc.entries, tc.height, tc.head, tc.state)
			if got != want {
				t.Fatalf("fingerprint drift through the transport seam:\n want %s\n  got %s", want, got)
			}
		})
	}
}
