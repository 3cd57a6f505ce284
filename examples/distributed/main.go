// Distributed demonstrates the message-passing substrate behind the
// paper's cluster experiments: the same WENO5 Burgers problem solved
// serially and split across goroutine "ranks" with per-stage halo exchanges
// and global Allreduce reductions — producing bit-identical results while
// the virtual-clock cost model reports the cluster-scale timing.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/la"
)

func main() {
	n := flag.Int("n", 512, "global grid points")
	steps := flag.Int("steps", 100, "fixed RK2 steps")
	flag.Parse()

	serial, err := dist.RunBurgers(dist.BurgersConfig{Ranks: 1, N: *n, Steps: *steps, H: 0.3 / float64(*n)})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Distributed WENO5 Burgers, N=%d, %d steps:\n\n", *n, *steps)
	fmt.Printf("%6s  %14s  %10s  %s\n", "ranks", "simulated time", "speedup", "matches serial bitwise?")
	fmt.Printf("%6d  %12.4f s  %9s  %s\n", 1, serial.Seconds, "1.0x", "-")
	ref := serial.Field()
	for _, p := range []int{2, 4, 8, 16, 32} {
		res, err := dist.RunBurgers(dist.BurgersConfig{Ranks: p, N: *n, Steps: *steps, H: 0.3 / float64(*n)})
		if err != nil {
			// A grid too small for this many ranks: report it, try the rest.
			fmt.Printf("%6d  skipped: %v\n", p, err)
			continue
		}
		match := "yes"
		for i, v := range res.Field() {
			if !la.ExactEq(v, ref[i]) {
				match = fmt.Sprintf("NO (first diff at %d)", i)
				break
			}
		}
		fmt.Printf("%6d  %12.4f s  %8.1fx  %s\n", p, res.Seconds, serial.Seconds/res.Seconds, match)
	}
	fmt.Println("\nEach rank exchanges 3 WENO ghost cells per stage and joins one")
	fmt.Println("Allreduce per stage for the global Rusanov speed — the communication")
	fmt.Println("pattern the scaling experiments (Table V, Figure 3) are built on.")
}
