// Command figures regenerates the per-figure experiments indexed in
// DESIGN.md: the BFS procedure (Figure 1), the Evaluation procedure
// (Figure 2) with the Lemma 1 coverage bound, the G_n construction
// (Figure 4), and the subdivision/simulation artifacts (Figures 5-8)
// summarized from cmd/lowerbound.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qcongest"
	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "=== Figure 1: BFS(leader) construction in O(D) rounds ===")
	for _, n := range []int{30, 60, 120} {
		g := qcongest.RandomConnected(n, 0.08, *seed)
		info, m, err := congest.Preprocess(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "n=%4d: leader=%d ecc(leader)=%d preprocessing rounds=%d\n",
			n, info.Leader, info.D, m.Rounds)
	}

	fmt.Fprintln(stdout, "\n=== Figure 2: Evaluation procedure (walk + waves + convergecast) ===")
	g := qcongest.RandomConnected(40, 0.08, *seed)
	topo, err := congest.NewTopology(g)
	if err != nil {
		return err
	}
	info, _, err := congest.PreprocessOn(topo)
	if err != nil {
		return err
	}
	eccs, err := g.AllEccentricities()
	if err != nil {
		return err
	}
	tree, err := graph.NewBFSTree(g, info.Leader)
	if err != nil {
		return err
	}
	// The Evaluation sessions are built once; each u0 is a Reset+Run — the
	// same execution shape the quantum algorithms use per Grover iteration.
	walk := congest.NewWalkSession(topo, info, info.Children, 2*info.D)
	defer walk.Close()
	ecc := congest.NewEccSession(topo, info, 6*info.D+2)
	defer ecc.Close()
	for _, u0 := range []int{0, 13, 27} {
		tau, mw, err := walk.Eval(u0)
		if err != nil {
			return err
		}
		val, mr, err := ecc.Eval(tau)
		if err != nil {
			return err
		}
		want := 0
		for _, v := range tree.SetS(u0, info.D) {
			if eccs[v] > want {
				want = eccs[v]
			}
		}
		fmt.Fprintf(stdout, "u0=%2d: f(u0)=%d (reference %d) rounds=%d (O(D), D<=%d)\n",
			u0, val, want, mw.Rounds+mr.Rounds, 2*info.D)
	}

	fmt.Fprintln(stdout, "\n=== Lemma 1: coverage of the window sets S(u) ===")
	for _, tc := range []struct {
		name string
		g    *qcongest.Graph
	}{
		{"path32", qcongest.Path(32)},
		{"random48", qcongest.RandomConnected(48, 0.07, *seed)},
		{"tree31", qcongest.CompleteBinaryTree(31)},
	} {
		minProb, bound, err := qcongest.Lemma1Coverage(tc.g)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-9s min_v Pr[v in S(u0)] = %.3f >= d/2n = %.3f\n", tc.name, minProb, bound)
	}

	fmt.Fprintln(stdout, "\n=== Figure 4: G_n of Theorem 8 (n = 10, s = 2) ===")
	red, err := qcongest.NewHW12Reduction(2)
	if err != nil {
		return err
	}
	x, _ := qcongest.BitsFromString("1000")
	y, _ := qcongest.BitsFromString("1000") // intersect at (0,0)
	gn, err := red.Build(x, y)
	if err != nil {
		return err
	}
	diam, _ := gn.Diameter()
	fmt.Fprintf(stdout, "x=y=1000 (intersecting): diameter=%d (expected %d)\n", diam, red.D2)
	y2, _ := qcongest.BitsFromString("0100")
	gn2, err := red.Build(x, y2)
	if err != nil {
		return err
	}
	diam2, _ := gn2.Diameter()
	fmt.Fprintf(stdout, "x=1000 y=0100 (disjoint): diameter=%d (expected <= %d)\n", diam2, red.D1)

	fmt.Fprintln(stdout, "\n(Figures 5-8: see cmd/lowerbound for the path network,")
	fmt.Fprintln(stdout, " subdivision and simulation experiments.)")
	return nil
}
