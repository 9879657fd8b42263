// Command diameter runs one distance-parameter algorithm on a generated
// network and prints the result with its measured round complexity.
//
// Usage:
//
//	diameter -graph random -n 60 -algo quantum-exact -seed 3
//	diameter -graph lollipop -n 80 -d 5 -algo classical-exact
//	diameter -graph random -n 40 -param radius -weighted -maxw 8
//	diameter -graph random -n 40 -param ecc -parallel 4
//	diameter -graph random -n 60 -param apsp -weighted -parallel 2
//	diameter -graph path -n 2048 -param ecc -cpuprofile ecc.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"qcongest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "diameter:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("diameter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind       = fs.String("graph", "random", "graph family: random|path|cycle|grid|lollipop|smallworld|caterpillar")
		n          = fs.Int("n", 40, "number of vertices")
		d          = fs.Int("d", 4, "target diameter (lollipop) / legs (caterpillar)")
		p          = fs.Float64("p", 0.1, "edge probability (random)")
		algo       = fs.String("algo", "quantum-exact", "algorithm: classical-exact|classical-approx|quantum-exact|quantum-simple|quantum-approx (diameter only; see -param)")
		param      = fs.String("param", "diameter", "parameter: diameter|radius|ecc|apsp|triangle|mincut")
		weighted   = fs.Bool("weighted", false, "assign uniform random edge weights in [1, maxw] and compute the weighted parameter")
		maxw       = fs.Int("maxw", 8, "largest edge weight used by -weighted")
		seed       = fs.Int64("seed", 1, "random seed")
		parallel   = fs.Int("parallel", 0, "evaluation sessions run concurrently by the quantum algorithms (0 = auto from the CPU budget, 1 = sequential; output is identical for any value)")
		sublinear  = fs.Bool("sublinear", false, "route the weighted parameters through the skeleton distance oracle (sublinear per-Evaluation rounds; -param apsp always does)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "diameter: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "diameter: memprofile:", err)
			}
		}()
	}
	g, err := buildGraph(*kind, *n, *d, *p, *seed)
	if err != nil {
		return err
	}
	if *weighted {
		g = qcongest.WithWeights(g, *maxw, *seed)
		truth, err := g.WeightedDiameter()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "graph=%s n=%d m=%d weighted=true maxw=%d true-weighted-diameter=%d\n",
			*kind, g.N(), g.M(), *maxw, truth)
	} else {
		truth, err := g.Diameter()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "graph=%s n=%d m=%d weighted=false true-diameter=%d\n", *kind, g.N(), g.M(), truth)
	}

	qopts := qcongest.QuantumOptions{Seed: *seed, Parallel: *parallel, Sublinear: *sublinear}
	if *param != "diameter" {
		return runParam(stdout, g, *param, *weighted, qopts)
	}
	if *weighted {
		return runWeightedDiameter(stdout, g, qopts)
	}
	switch *algo {
	case "classical-exact":
		res, err := qcongest.ClassicalExactDiameter(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "classical exact: diameter=%d rounds=%d messages=%d\n",
			res.Diameter, res.Metrics.Rounds, res.Metrics.Messages)
	case "classical-approx":
		res, err := qcongest.ClassicalApproxDiameter(g, 0, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "classical 3/2-approx: estimate=%d rounds=%d\n", res.Diameter, res.Metrics.Rounds)
	case "quantum-exact", "quantum-simple", "quantum-approx":
		var res qcongest.QuantumResult
		switch *algo {
		case "quantum-exact":
			res, err = qcongest.QuantumExactDiameter(g, qopts)
		case "quantum-simple":
			res, err = qcongest.QuantumExactDiameterSimple(g, qopts)
		default:
			res, err = qcongest.QuantumApproxDiameter(g, qopts)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: diameter=%d rounds=%d iterations=%d eval-rounds=%d qubits/node=%d leader=%d\n",
			*algo, res.Diameter, res.Rounds, res.Iterations, res.EvalRounds, res.NodeQubits, res.LeaderQubits)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	return nil
}

// runParam dispatches the non-diameter entries of the distance-parameter
// suite (-param radius|ecc|apsp|triangle|mincut), printing the quantum
// result against the sequential oracle.
func runParam(stdout io.Writer, g *qcongest.Graph, param string, weighted bool, qopts qcongest.QuantumOptions) error {
	switch param {
	case "radius":
		var truth int
		var err error
		if weighted {
			truth, err = g.WeightedRadius()
		} else {
			truth, err = g.Radius()
		}
		if err != nil {
			return err
		}
		res, err := qcongest.Radius(g, qopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "quantum radius: radius=%d true-radius=%d rounds=%d iterations=%d eval-rounds=%d\n",
			res.Diameter, truth, res.Rounds, res.Iterations, res.EvalRounds)
	case "ecc":
		res, err := qcongest.Eccentricities(g, qopts)
		if err != nil {
			return err
		}
		var truth []int
		if weighted {
			truth, err = g.WeightedAllEccentricities()
		} else {
			truth, err = g.AllEccentricities()
		}
		if err != nil {
			return err
		}
		match := len(truth) == len(res.Ecc)
		for v := range res.Ecc {
			match = match && res.Ecc[v] == truth[v]
		}
		lo, hi := 0, 0
		if len(res.Ecc) > 0 {
			lo, hi = slices.Min(res.Ecc), slices.Max(res.Ecc)
		}
		fmt.Fprintf(stdout, "quantum eccentricities: n=%d match-oracle=%v rounds=%d eval-rounds=%d min=%d max=%d\n",
			len(res.Ecc), match, res.Rounds, res.EvalRounds, lo, hi)
	case "apsp":
		// Each streamed row is checked against a per-source Dijkstra run —
		// n * O(m log n) oracle work, the same budget as the ecc oracle.
		match := true
		res, err := qcongest.APSP(g, qopts, func(source int, row []int) error {
			want := g.Dijkstra(source)
			for v := range row {
				match = match && row[v] == want[v]
			}
			return nil
		})
		if err != nil {
			return err
		}
		diam, rad := 0, 0
		if len(res.Ecc) > 0 {
			diam, rad = slices.Max(res.Ecc), slices.Min(res.Ecc)
		}
		fmt.Fprintf(stdout, "quantum apsp: n=%d match-oracle=%v diameter=%d radius=%d rounds=%d init-rounds=%d eval-rounds=%d\n",
			res.Sources, match, diam, rad, res.Rounds, res.InitRounds, res.EvalRounds)
	case "triangle":
		res, err := qcongest.TriangleCount(g, qopts)
		if err != nil {
			return err
		}
		truth := 0
		for v := 0; v < g.N(); v++ {
			if onTriangle(g, v) {
				truth++
			}
		}
		fmt.Fprintf(stdout, "quantum triangle count: found=%v vertices=%d true-vertices=%d rounds=%d iterations=%d eval-rounds=%d\n",
			res.Found, res.Count, truth, res.Rounds, res.Iterations, res.EvalRounds)
	case "mincut":
		res, err := qcongest.MinTreeCut(g, qopts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "quantum min tree cut: weight=%d root=%d rounds=%d iterations=%d eval-rounds=%d\n",
			res.Weight, res.Root, res.Rounds, res.Iterations, res.EvalRounds)
	default:
		return fmt.Errorf("unknown parameter %q (want diameter, radius, ecc, apsp, triangle or mincut)", param)
	}
	return nil
}

// onTriangle is the brute-force check that v lies on a triangle.
func onTriangle(g *qcongest.Graph, v int) bool {
	nbs := g.Neighbors(v)
	for i, a := range nbs {
		for _, b := range nbs[i+1:] {
			if g.HasEdge(a, b) {
				return true
			}
		}
	}
	return false
}

// runWeightedDiameter handles -weighted with the default -param diameter:
// the quantum weighted diameter against the Dijkstra oracle.
func runWeightedDiameter(stdout io.Writer, g *qcongest.Graph, qopts qcongest.QuantumOptions) error {
	truth, err := g.WeightedDiameter()
	if err != nil {
		return err
	}
	res, err := qcongest.WeightedDiameter(g, qopts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "quantum weighted diameter: diameter=%d true-weighted-diameter=%d rounds=%d iterations=%d eval-rounds=%d\n",
		res.Diameter, truth, res.Rounds, res.Iterations, res.EvalRounds)
	return nil
}

func buildGraph(kind string, n, d int, p float64, seed int64) (*qcongest.Graph, error) {
	switch kind {
	case "random":
		return qcongest.RandomConnected(n, p, seed), nil
	case "path":
		return qcongest.Path(n), nil
	case "cycle":
		return qcongest.Cycle(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return qcongest.Grid(side, side), nil
	case "lollipop":
		return qcongest.LollipopWithDiameter(n, d)
	case "smallworld":
		return qcongest.SmallWorld(n, 2, 0.2, seed), nil
	case "caterpillar":
		return qcongest.Caterpillar(n/(d+1), d), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}
