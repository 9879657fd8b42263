// Command table1 regenerates the paper's Table 1 as measured round counts:
// classical vs quantum, exact and 3/2-approximate, with fitted scaling
// exponents.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qcongest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trials   = fs.Int("trials", 3, "seeds per quantum measurement")
		seed     = fs.Int64("seed", 1, "base seed")
		diam     = fs.Int("d", 4, "fixed diameter for the n sweep")
		long     = fs.Bool("long", false, "use larger sweeps")
		workers  = fs.Int("workers", 0, "engine workers per round (0 = auto; measured rounds are identical for any value)")
		parallel = fs.Int("parallel", 0, "quantum trials run concurrently per sweep point (0 = auto: one trial at a time, each batching its evaluations over the CPU budget; results are identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	engine := []qcongest.EngineOption{qcongest.WithWorkers(*workers)}

	sizes := []int{30, 60, 120}
	if *long {
		sizes = []int{40, 80, 160, 320}
	}

	fmt.Fprintln(stdout, "=== Table 1, row 'Exact computation' ===")
	classical, quantum, err := qcongest.ExactComparison(sizes, *diam, *trials, *seed, *parallel, engine...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, qcongest.FormatTable(classical, quantum))
	fmt.Fprintf(stdout, "classical slope vs n: %.2f (theory: 1.0)\n",
		classical.Slope(func(p qcongest.Point) float64 { return float64(p.N) }))
	fmt.Fprintf(stdout, "quantum   slope vs n: %.2f (theory: 0.5)\n",
		quantum.Slope(func(p qcongest.Point) float64 { return float64(p.N) }))
	if cross, err := qcongest.CrossoverN(classical, quantum); err == nil {
		fmt.Fprintf(stdout, "extrapolated crossover: quantum wins beyond n ~ %.0f (D=%d)\n\n", cross, *diam)
	} else {
		fmt.Fprintf(stdout, "crossover extrapolation: %v\n\n", err)
	}

	fmt.Fprintln(stdout, "=== Theorem 1: quantum rounds vs D (n fixed) ===")
	sweep, err := qcongest.DiameterSweep(sizes[len(sizes)-1]/2, []int{3, 6, 12}, *trials, *seed, *parallel, engine...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, qcongest.FormatTable(sweep))
	fmt.Fprintf(stdout, "quantum slope vs D: %.2f (theory: 0.5)\n\n",
		sweep.Slope(func(p qcongest.Point) float64 { return float64(p.D) }))

	fmt.Fprintln(stdout, "=== Table 1, row '3/2-approximation' ===")
	ca, qa, err := qcongest.ApproxComparison(sizes, *diam, *trials, *seed, *parallel, engine...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, qcongest.FormatTable(ca, qa))

	fmt.Fprintln(stdout, "=== Table 1, rows 'lower bounds': DISJ tradeoff (Theorem 5) ===")
	points, err := qcongest.MeasureDisjTradeoff(4096, []int{8, 16, 32, 64, 128, 256}, 15, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  %8s %8s %8s %9s\n", "budget r", "blocks", "messages", "qubits")
	for _, p := range points {
		fmt.Fprintf(stdout, "  %8d %8d %8d %9d\n", p.MessageBudget, p.Blocks, p.Messages, p.Qubits)
	}
	fmt.Fprintln(stdout, "  (shape: ~k/r for small r, minimum near r=sqrt(k), then ~r)")
	return nil
}
