package massbft

import (
	"fmt"
	"testing"
	"time"
)

// TestTransportSeamBitIdentical pins fixed-seed cluster runs to fingerprints
// of the simulated fabric. Nodes are wired to simnet.Network through the
// transport seam itself — each node's Endpoint is its *simnet.Node, and the
// emulator hands transport.Message to the node's transport.Handler — so a
// change to the seam must not perturb a single scheduling decision, fault
// draw, or allocation: committed counts, ledger height, head hash, and state
// hash must all match byte-for-byte. Each run carries a cutWatch: a
// transition hook that only reads moves nothing, and no cut is applied past
// a cursor.
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
			committed: 105069, entries: 270, height: 292,
			head:  "e426f7ae72ed9a923e42518b5733ab5b081ffbf1bb499f0fbf439d1e65c7c64e",
			state: "4a94c8a61e944f4bbcb03a8fe920c0cb8e986b6957ee7657947e2aa8867e4596",
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
			cuts := watchCuts(c)
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
			cuts.expect(t, "")
		})
	}
}
