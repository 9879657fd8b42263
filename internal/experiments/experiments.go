// Package experiments drives the reproduction of the paper's evaluation
// artifacts: the Table 1 round-complexity comparison and the per-figure
// experiments indexed in DESIGN.md. Each driver returns measured series
// that cmd/table1, cmd/figures and the benchmarks render.
package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/graph"
)

// Point is one measurement of a sweep.
type Point struct {
	N        int // nodes
	D        int // diameter
	Rounds   int
	Diameter int // computed value
	OK       bool
}

// Series is a named sequence of measurements.
type Series struct {
	Name   string
	Points []Point
}

// Slope fits log(rounds) against log(x) by least squares over the series,
// with x supplied per point (e.g. n, or n*D). It reports the exponent: ~1
// for linear scaling, ~0.5 for sqrt scaling.
func (s Series) Slope(x func(Point) float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range s.Points {
		if p.Rounds <= 0 {
			continue
		}
		lx, ly := math.Log(x(p)), math.Log(float64(p.Rounds))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}

// runTrials executes `trials` independent runs of run, trial tr with
// seed+tr, spreading them over up to `parallel` goroutines, and folds the
// per-trial results in trial order — so the returned Point is identical for
// every parallelism level. Trials and cloned evaluation contexts share one
// CPU budget: concurrent trials each run one context (Parallel 1), and a
// sequential sweep leaves each call the automatic budget (Parallel 0).
func runTrials(trials, parallel int, seed int64, engine []congest.Option, run func(opts core.Options) (core.Result, error)) (rounds int, lastDiam int, hits func(ok func(int) bool) int, err error) {
	if trials < 1 {
		return 0, 0, nil, fmt.Errorf("experiments: trials %d < 1", trials)
	}
	inner := 0
	if parallel > 1 {
		inner = 1
	}
	results := make([]core.Result, trials)
	err = congest.ForEach(parallel, trials, func(tr int) error {
		res, err := run(core.Options{Seed: seed + int64(tr), Parallel: inner, Engine: engine})
		if err != nil {
			return err
		}
		results[tr] = res
		return nil
	})
	if err != nil {
		return 0, 0, nil, err
	}
	total := 0
	for _, r := range results {
		total += r.Rounds
	}
	return total / trials, results[trials-1].Diameter, func(ok func(int) bool) int {
		h := 0
		for _, r := range results {
			if ok(r.Diameter) {
				h++
			}
		}
		return h
	}, nil
}

// ExactComparison measures the Table 1 "Exact computation" row: classical
// Theta(n) vs quantum Õ(sqrt(nD)) rounds on constant-diameter graphs of
// increasing size. trials averages the randomized quantum cost; parallel
// runs that many trials concurrently (<= 1: sequential trials, each on the
// automatic evaluation budget) with results folded in trial order, so the
// measured series are identical for every value.
func ExactComparison(sizes []int, diameter int, trials int, seed int64, parallel int, engine ...congest.Option) (classical, quantum Series, err error) {
	classical.Name = "classical exact (PRT12)"
	quantum.Name = "quantum exact (Theorem 1)"
	for _, n := range sizes {
		g, err := graph.LollipopWithDiameter(n, diameter)
		if err != nil {
			return classical, quantum, err
		}
		want, err := g.Diameter()
		if err != nil {
			return classical, quantum, err
		}
		cres, err := congest.ClassicalExactDiameter(g, engine...)
		if err != nil {
			return classical, quantum, err
		}
		classical.Points = append(classical.Points, Point{
			N: n, D: want, Rounds: cres.Metrics.Rounds,
			Diameter: cres.Diameter, OK: cres.Diameter == want,
		})
		rounds, lastDiam, hits, err := runTrials(trials, parallel, seed, engine, func(opts core.Options) (core.Result, error) {
			return core.ExactDiameter(g, opts)
		})
		if err != nil {
			return classical, quantum, err
		}
		quantum.Points = append(quantum.Points, Point{
			N: n, D: want, Rounds: rounds,
			Diameter: lastDiam, OK: hits(func(d int) bool { return d == want })*2 > trials,
		})
	}
	return classical, quantum, nil
}

// DiameterSweep measures quantum exact rounds as D grows with n fixed,
// exposing the sqrt(D) factor of Theorem 1. parallel runs up to that many
// trials concurrently, with deterministic result folding.
func DiameterSweep(n int, diameters []int, trials int, seed int64, parallel int, engine ...congest.Option) (Series, error) {
	s := Series{Name: "quantum exact vs D"}
	for _, d := range diameters {
		g, err := graph.LollipopWithDiameter(n, d)
		if err != nil {
			return s, err
		}
		rounds, last, hits, err := runTrials(trials, parallel, seed, engine, func(opts core.Options) (core.Result, error) {
			return core.ExactDiameter(g, opts)
		})
		if err != nil {
			return s, err
		}
		s.Points = append(s.Points, Point{
			N: n, D: d, Rounds: rounds, Diameter: last,
			OK: hits(func(got int) bool { return got == d })*2 > trials,
		})
	}
	return s, nil
}

// ApproxComparison measures the Table 1 "3/2-approximation" row. parallel
// runs up to that many trials concurrently, with deterministic result
// folding.
func ApproxComparison(sizes []int, diameter int, trials int, seed int64, parallel int, engine ...congest.Option) (classical, quantum Series, err error) {
	classical.Name = "classical 3/2-approx (HPRW14)"
	quantum.Name = "quantum 3/2-approx (Theorem 4)"
	for _, n := range sizes {
		g, err := graph.LollipopWithDiameter(n, diameter)
		if err != nil {
			return classical, quantum, err
		}
		want, err := g.Diameter()
		if err != nil {
			return classical, quantum, err
		}
		cres, err := congest.ClassicalApproxDiameter(g, 0, seed, engine...)
		if err != nil {
			return classical, quantum, err
		}
		classical.Points = append(classical.Points, Point{
			N: n, D: want, Rounds: cres.Metrics.Rounds, Diameter: cres.Diameter,
			OK: approxOK(cres.Diameter, want),
		})
		rounds, last, hits, err := runTrials(trials, parallel, seed, engine, func(opts core.Options) (core.Result, error) {
			return core.ApproxDiameter(g, opts)
		})
		if err != nil {
			return classical, quantum, err
		}
		quantum.Points = append(quantum.Points, Point{
			N: n, D: want, Rounds: rounds, Diameter: last,
			OK: hits(approxOKFor(want))*2 > trials,
		})
	}
	return classical, quantum, nil
}

func approxOKFor(diam int) func(int) bool {
	return func(estimate int) bool { return approxOK(estimate, diam) }
}

func approxOK(estimate, diam int) bool {
	return estimate <= diam && 2*diam <= 3*(estimate+1)
}

// SuiteComparison measures the distance-parameter suite on one graph family
// (lollipops of fixed diameter, like the Table 1 sweeps): for each size, the
// quantum rounds of the diameter, radius, eccentricities-vector and weighted
// diameter computations against their classical baselines. The weighted
// variant assigns uniform weights in [1, maxW] (maxW <= 1 keeps all weights
// 1). Every computed value is checked against the sequential graph oracle —
// OK is false on any mismatch — so the sweep doubles as an end-to-end
// cross-check. parallel batches independent evaluations (and trials) like
// the other drivers, with results identical for every value.
func SuiteComparison(sizes []int, diameter int, maxW int, seed int64, parallel int, engine ...congest.Option) ([]Series, error) {
	series := []Series{
		{Name: "classical exact diameter (PRT12)"},
		{Name: "quantum diameter (Theorem 1)"},
		{Name: "quantum radius (min-finding)"},
		{Name: "classical eccentricities (PRT12 wave)"},
		{Name: "quantum eccentricities (per-vertex evals)"},
		{Name: "quantum weighted diameter (Bellman-Ford evals)"},
	}
	for _, n := range sizes {
		g, err := graph.LollipopWithDiameter(n, diameter)
		if err != nil {
			return series, err
		}
		wantDiam, err := g.Diameter()
		if err != nil {
			return series, err
		}
		wantRad, err := g.Radius()
		if err != nil {
			return series, err
		}
		wantEcc, err := g.AllEccentricities()
		if err != nil {
			return series, err
		}
		wg := graph.WithWeights(g, maxW, seed)
		wantWDiam, err := wg.WeightedDiameter()
		if err != nil {
			return series, err
		}
		opts := core.Options{Seed: seed, Parallel: parallel, Engine: engine}

		cres, err := congest.ClassicalExactDiameter(g, engine...)
		if err != nil {
			return series, err
		}
		series[0].Points = append(series[0].Points, Point{
			N: n, D: wantDiam, Rounds: cres.Metrics.Rounds,
			Diameter: cres.Diameter, OK: cres.Diameter == wantDiam,
		})

		qd, err := core.ExactDiameter(g, opts)
		if err != nil {
			return series, err
		}
		series[1].Points = append(series[1].Points, Point{
			N: n, D: wantDiam, Rounds: qd.Rounds, Diameter: qd.Diameter, OK: qd.Diameter == wantDiam,
		})

		qr, err := core.Radius(g, opts)
		if err != nil {
			return series, err
		}
		series[2].Points = append(series[2].Points, Point{
			N: n, D: wantDiam, Rounds: qr.Rounds, Diameter: qr.Diameter, OK: qr.Diameter == wantRad,
		})

		ceccs, cm, err := congest.ClassicalEccentricities(g, engine...)
		if err != nil {
			return series, err
		}
		cOK := len(ceccs) == len(wantEcc)
		for v := range ceccs {
			cOK = cOK && ceccs[v] == wantEcc[v]
		}
		series[3].Points = append(series[3].Points, Point{
			N: n, D: wantDiam, Rounds: cm.Rounds, Diameter: slices.Max(ceccs), OK: cOK,
		})

		qe, err := core.Eccentricities(g, opts)
		if err != nil {
			return series, err
		}
		qOK := len(qe.Ecc) == len(wantEcc)
		for v := range qe.Ecc {
			qOK = qOK && qe.Ecc[v] == wantEcc[v]
		}
		series[4].Points = append(series[4].Points, Point{
			N: n, D: wantDiam, Rounds: qe.Rounds, Diameter: slices.Max(qe.Ecc), OK: qOK,
		})

		qw, err := core.WeightedDiameter(wg, opts)
		if err != nil {
			return series, err
		}
		series[5].Points = append(series[5].Points, Point{
			N: n, D: wantDiam, Rounds: qw.Rounds, Diameter: qw.Diameter, OK: qw.Diameter == wantWDiam,
		})
	}
	return series, nil
}

// Lemma1Coverage measures min over v of Pr[v in S(u0)] for uniform u0 and
// compares it with the paper's bound d/2n.
func Lemma1Coverage(g *graph.Graph, engine ...congest.Option) (minProb, bound float64, err error) {
	info, _, err := congest.Preprocess(g, engine...)
	if err != nil {
		return 0, 0, err
	}
	tree, err := graph.NewBFSTree(g, info.Leader)
	if err != nil {
		return 0, 0, err
	}
	n := g.N()
	d := info.D
	count := make([]int, n)
	for u := 0; u < n; u++ {
		for _, v := range tree.SetS(u, d) {
			count[v]++
		}
	}
	minProb = 1
	for _, c := range count {
		if p := float64(c) / float64(n); p < minProb {
			minProb = p
		}
	}
	return minProb, float64(d) / (2 * float64(n)), nil
}

// FormatTable renders series as an aligned text table.
func FormatTable(series ...Series) string {
	var b strings.Builder
	for _, s := range series {
		fmt.Fprintf(&b, "%s\n", s.Name)
		fmt.Fprintf(&b, "  %6s %6s %8s %9s %4s\n", "n", "D", "rounds", "output", "ok")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  %6d %6d %8d %9d %4v\n", p.N, p.D, p.Rounds, p.Diameter, p.OK)
		}
	}
	return b.String()
}
