// Command lowerbound runs the lower-bound experiments of Sections 5 and 6:
// reduction verification (Theorems 8 and 9), the CONGEST-to-two-party
// conversion (Theorem 10), the subdivided graphs of Figure 8, and the G_d
// simulation of Theorem 11.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"qcongest"
	"qcongest/internal/bitstring"
	"qcongest/internal/reduction"
	"qcongest/internal/simulation"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed   = flag.Int64("seed", 1, "random seed")
		trials = flag.Int("trials", 5, "random input pairs per experiment")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	fmt.Println("=== Theorem 8 (Figure 4): HW12 reduction, diameter 2 vs 3 ===")
	hw, err := qcongest.NewHW12Reduction(4)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d b=%d k=%d\n", hw.Base.N(), hw.B, hw.K)
	if err := verifyPairs(hw, *trials, rng); err != nil {
		return err
	}

	fmt.Println("\n=== Theorem 9: ACHK16-style reduction, diameter 4 vs 5 ===")
	achk, err := qcongest.NewACHK16Reduction(32)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d b=%d (Theta(log n)) k=%d\n", achk.Base.N(), achk.B, achk.K)
	if err := verifyPairs(achk, *trials, rng); err != nil {
		return err
	}

	fmt.Println("\n=== Theorem 10: CONGEST run as a two-party protocol ===")
	x, y, err := qcongest.RandomIntersectingPair(hw.K, rng)
	if err != nil {
		return err
	}
	sim, err := qcongest.TwoPartyFromCongest(hw, x, y)
	if err != nil {
		return err
	}
	// The transcript is the captured encoding of the cut traffic; its
	// length IS the communication cost (no summed declared sizes anywhere).
	if sim.Transcript.Len() != sim.CutBits {
		return fmt.Errorf("transcript %d bits but CutBits %d", sim.Transcript.Len(), sim.CutBits)
	}
	fmt.Printf("DISJ decided: %d; rounds=%d transcript=%d bits messages=%d (<= 2*rounds)\n",
		sim.Disj, sim.Rounds, sim.Transcript.Len(), sim.Protocol.Messages)
	prefix := sim.Transcript.String()
	if len(prefix) > 64 {
		prefix = prefix[:64] + "..."
	}
	fmt.Printf("transcript prefix: %s\n", prefix)

	fmt.Println("\n=== Figure 8: subdivided graphs, diameter d+4 vs d+5 ===")
	for _, d := range []int{2, 5, 10} {
		xd, yd, err := qcongest.RandomDisjointPair(achk.K, rng)
		if err != nil {
			return err
		}
		xi, yi, err := qcongest.RandomIntersectingPair(achk.K, rng)
		if err != nil {
			return err
		}
		sub1, err := qcongest.BuildSubdivided(achk, xd, yd, d)
		if err != nil {
			return err
		}
		sub2, err := qcongest.BuildSubdivided(achk, xi, yi, d)
		if err != nil {
			return err
		}
		d1, _ := sub1.G.Diameter()
		d2, _ := sub2.G.Diameter()
		fmt.Printf("d=%2d: disjoint diameter=%d (<= %d)  intersecting diameter=%d (== %d)\n",
			d, d1, sub1.LeftDiameter, d2, sub2.RightDiameter)
	}

	fmt.Println("\n=== Theorem 11 (Figures 6-7): G_d simulation ===")
	fmt.Printf("  %4s %6s %9s %13s\n", "d", "r", "messages", "qubits")
	for _, d := range []int{2, 4, 8, 16} {
		alg := simulation.NewRelayAlgorithm(d, func(a, b uint64) uint64 { return a & b })
		res, err := alg.RunTwoParty(0xF0F0, 0x0FF0)
		if err != nil {
			return err
		}
		fmt.Printf("  %4d %6d %9d %13d   (O(r/d) messages, O(r(bw+s)) qubits)\n",
			d, alg.Rounds, res.Metrics.Messages, res.Metrics.Qubits)
	}

	fmt.Println("\n=== Derived round lower bounds vs the Theorem 1 upper bound ===")
	fmt.Printf("  %6s %6s %14s %14s %16s\n", "n", "D", "Thm2 ~sqrt(n)", "Thm3 ~sqrt(nD/s)", "Thm1 ~sqrt(nD)")
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		for _, d := range []int{4, 64} {
			t2, t3 := reduction.LowerBoundRounds(n, 1, d, 1)
			up := float64(n * d)
			fmt.Printf("  %6d %6d %14.0f %14.0f %16.0f\n", n, d, t2, t3, math.Sqrt(up))
		}
	}
	return nil
}

func verifyPairs(red *qcongest.Reduction, trials int, rng *rand.Rand) error {
	pairs := []func(int, *rand.Rand) (x, y *bitstring.Bits, err error){
		bitstring.RandomDisjointPair, bitstring.RandomIntersectingPair,
	}
	for i := 0; i < trials; i++ {
		for _, pair := range pairs {
			x, y, err := pair(red.K, rng)
			if err != nil {
				return err
			}
			if err := red.Verify(x, y); err != nil {
				return err
			}
		}
	}
	fmt.Printf("verified %d disjoint + %d intersecting input pairs\n", trials, trials)
	return nil
}
