// Command massbft-plan prints the Algorithm-1 transfer plan for a
// sender/receiver group pair, reproducing the paper's Fig 5 case study:
//
//	massbft-plan -n1 4 -n2 7
//
// prints the 28-chunk plan with 13 data + 15 parity chunks and redundancy
// ~2.15 entry copies (versus 4 for plain bijective sending).
package main

import (
	"flag"
	"fmt"
	"os"

	"massbft/internal/plan"
)

func main() {
	n1 := flag.Int("n1", 4, "sender group size")
	n2 := flag.Int("n2", 7, "receiver group size")
	verbose := flag.Bool("v", false, "print every <chunk, sender, receiver> tuple")
	flag.Parse()

	p, err := plan.New(*n1, *n2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "massbft-plan: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("transfer plan %d -> %d nodes\n", p.SenderNodes, p.ReceiverNodes)
	fmt.Printf("  total chunks   n_total  = %d (LCM)\n", p.Total)
	fmt.Printf("  data chunks    n_data   = %d\n", p.Data)
	fmt.Printf("  parity chunks  n_parity = %d (= %d*f1 + %d*f2 worst-case loss)\n",
		p.Parity, p.PerSender, p.PerReceiver)
	fmt.Printf("  per sender     nc1      = %d chunks\n", p.PerSender)
	fmt.Printf("  per receiver   nc2      = %d chunks\n", p.PerReceiver)
	fmt.Printf("  redundancy              = %.2f entry copies over WAN\n", p.Redundancy())
	fmt.Printf("  plain bijective (SIV-A) = %d entry copies\n", plan.BijectiveCopies(*n1, *n2))
	if *verbose {
		fmt.Println("\nchunk  sender  receiver")
		for _, tr := range p.Transfers {
			fmt.Printf("%5d  N1,%-4d N2,%d\n", tr.Chunk, tr.Sender, tr.Receiver)
		}
	}
}
