package massbft_test

import (
	"fmt"
	"time"

	"massbft"
)

// The simplest possible deployment: three data centers running MassBFT on a
// built-in workload. (Compile-checked example; see examples/quickstart for a
// runnable program.)
func ExampleNewCluster() {
	cfg := massbft.Config{
		Groups:   []int{4, 4, 4},
		Protocol: massbft.ProtocolMassBFT,
		Workload: "ycsb-a",
	}
	c, err := massbft.NewCluster(cfg)
	if err != nil {
		panic(err)
	}
	res := c.Run(10 * time.Second)
	fmt.Printf("throughput: %.0f tps\n", res.Throughput)
}

// Comparing protocols under identical conditions: the same seed, network,
// and workload with only the protocol switched.
func ExampleConfig_protocolComparison() {
	for _, p := range []massbft.Protocol{massbft.ProtocolMassBFT, massbft.ProtocolBaseline} {
		c, err := massbft.NewCluster(massbft.Config{
			Groups:   []int{7, 7, 7},
			Protocol: p,
			Workload: "smallbank",
			Seed:     42,
		})
		if err != nil {
			panic(err)
		}
		fmt.Println(p, c.Run(10*time.Second))
	}
}

// Fault injection: a Byzantine phase followed by a data-center outage, with
// the per-second series showing the dip and recovery (the paper's Fig 15).
func ExampleCluster_faultTimeline() {
	c, err := massbft.NewCluster(massbft.Config{
		Groups:          []int{7, 7, 7},
		TakeoverTimeout: 2 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	c.MakeByzantine(10*time.Second, 2)
	c.CrashGroup(20*time.Second, 0)
	res := c.Run(30 * time.Second)
	for _, p := range res.Series {
		fmt.Println(p.Second, p.Throughput)
	}
}

// Elastic membership: a standby group joins and an active one leaves mid-run,
// each behind a certified epoch cut (README "Elastic membership" is this code).
func ExampleCluster_Reconfigure() {
	c, err := massbft.NewCluster(massbft.Config{
		Groups: []int{4, 4, 4, 4}, StandbyGroups: 1, // group 3 starts standby
		TakeoverTimeout: 200 * time.Millisecond, // keeps standby streams live
	})
	if err != nil {
		panic(err)
	}
	c.Reconfigure(2*time.Second, massbft.ReconfigJoin, 3)  // scale out mid-run
	c.Reconfigure(6*time.Second, massbft.ReconfigLeave, 2) // drain + remove
	c.Run(10 * time.Second)
	fmt.Println(c.Epoch())
	// Output: 2 [0 1 3]
}
