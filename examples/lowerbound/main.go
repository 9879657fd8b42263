// Lower-bound demo: why no classical algorithm can beat Theta(n), and
// where the quantum Omega(sqrt(n)) barrier comes from. Builds the Theorem 8
// reduction, shows that the diameter of G_n(x, y) encodes DISJ(x, y), and
// runs the actual CONGEST algorithm as a two-party protocol (Theorem 10).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"qcongest"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	red, err := qcongest.NewHW12Reduction(4) // n = 18, k = 16
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 8 reduction: n=%d nodes, b=%d cut edges, k=%d DISJ bits\n\n",
		red.Base.N(), red.B, red.K)

	for trial := 0; trial < 4; trial++ {
		pair := qcongest.RandomDisjointPair
		if trial%2 == 1 {
			pair = qcongest.RandomIntersectingPair
		}
		x, y, err := pair(red.K, rng)
		if err != nil {
			log.Fatal(err)
		}
		g, err := red.Build(x, y)
		if err != nil {
			log.Fatal(err)
		}
		diam, err := g.Diameter()
		if err != nil {
			log.Fatal(err)
		}
		sim, err := qcongest.TwoPartyFromCongest(red, x, y)
		if err != nil {
			log.Fatal(err)
		}
		disj, err := qcongest.Disj(x, y)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("x=%s y=%s\n", x, y)
		fmt.Printf("  DISJ=%d  diameter(Gn(x,y))=%d  two-party: %d messages, %d bits over the cut\n",
			disj, diam, sim.Protocol.Messages, sim.CutBits)
	}

	fmt.Println("\nAny diameter algorithm faster than the DISJ communication bound")
	fmt.Println("would violate [BGK+15]; that is the engine behind Theorems 2 and 3.")
}
