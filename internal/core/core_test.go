package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// classicalExact returns the round count of the classical exact baseline.
func classicalExact(g *graph.Graph) (int, error) {
	res, err := congest.ClassicalExactDiameter(g)
	if err != nil {
		return 0, err
	}
	return res.Metrics.Rounds, nil
}

// Success probability is constant per run (delta = 0.1); count hits over
// seeds and require a strong majority.
func assertMostlyCorrect(t *testing.T, g *graph.Graph, want int,
	run func(seed int64) (Result, error), minHits, trials int) {
	t.Helper()
	hits := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		res, err := run(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Diameter == want {
			hits++
		}
		if res.Diameter > want {
			t.Fatalf("seed %d: result %d exceeds true diameter %d (impossible: f maximizes true eccentricities)",
				seed, res.Diameter, want)
		}
	}
	if hits < minHits {
		t.Errorf("correct in %d/%d runs, want >= %d", hits, trials, minHits)
	}
}

func TestExactDiameterSimpleCorrectness(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(12),
		graph.Cycle(13),
		graph.Grid(3, 6),
		graph.RandomConnected(24, 0.1, 3),
	}
	for gi, g := range graphs {
		want, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		g := g
		t.Run("", func(t *testing.T) {
			assertMostlyCorrect(t, g, want, func(seed int64) (Result, error) {
				return ExactDiameterSimple(g, Options{Seed: seed})
			}, 8, 10)
		})
		_ = gi
	}
}

func TestExactDiameterCorrectness(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(14),
		graph.Star(12),
		graph.Cycle(12),
		graph.Grid(4, 5),
		graph.CompleteBinaryTree(15),
		graph.Barbell(5, 4),
		graph.RandomConnected(26, 0.08, 5),
		graph.RandomConnected(26, 0.2, 6),
		graph.SmallWorld(24, 2, 0.2, 7),
	}
	for _, g := range graphs {
		want, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		g := g
		t.Run("", func(t *testing.T) {
			assertMostlyCorrect(t, g, want, func(seed int64) (Result, error) {
				return ExactDiameter(g, Options{Seed: seed})
			}, 8, 10)
		})
	}
}

func TestTrivialGraphs(t *testing.T) {
	for _, f := range []func(*graph.Graph, Options) (Result, error){
		ExactDiameterSimple, ExactDiameter, ApproxDiameter,
	} {
		res, err := f(graph.Path(1), Options{})
		if err != nil || res.Diameter != 0 {
			t.Errorf("n=1: %v %v", res.Diameter, err)
		}
		res, err = f(graph.Path(2), Options{})
		if err != nil || res.Diameter != 1 {
			t.Errorf("n=2: %v %v", res.Diameter, err)
		}
	}
}

func TestApproxDiameterQuality(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(24),
		graph.Cycle(20),
		graph.Grid(4, 6),
		graph.RandomConnected(30, 0.08, 11),
		graph.Barbell(6, 6),
	}
	for gi, g := range graphs {
		want, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		okCount := 0
		const trials = 6
		for seed := int64(0); seed < trials; seed++ {
			res, err := ApproxDiameter(g, Options{Seed: seed})
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			if res.Diameter > want {
				t.Fatalf("graph %d: estimate %d exceeds diameter %d", gi, res.Diameter, want)
			}
			if 2*want <= 3*(res.Diameter+1) {
				okCount++
			}
		}
		if okCount < trials-1 {
			t.Errorf("graph %d: 3/2 bound held in only %d/%d runs", gi, okCount, trials)
		}
	}
}

// Theorem 1's qualitative claim, measured as scaling: on constant-diameter
// graphs, quadrupling n roughly doubles the quantum round count
// (sqrt scaling) while the classical baseline quadruples. The absolute
// crossover lies at much larger n because one amplification iteration
// costs ~38d rounds (see EXPERIMENTS.md); the separation in growth rates is
// the reproducible claim at laptop scale.
func TestQuantumSqrtScalingOnSmallDiameter(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling comparison")
	}
	rounds := func(n int) (q, c float64) {
		g, err := graph.LollipopWithDiameter(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Average the randomized quantum cost over a few seeds.
		totalQ := 0
		const trials = 3
		for seed := int64(0); seed < trials; seed++ {
			res, err := ExactDiameter(g, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Diameter != 4 {
				t.Errorf("n=%d seed=%d: diameter %d, want 4", n, seed, res.Diameter)
			}
			totalQ += res.Rounds
		}
		cl, err := classicalExact(g)
		if err != nil {
			t.Fatal(err)
		}
		return float64(totalQ) / trials, float64(cl)
	}
	q1, c1 := rounds(40)
	q2, c2 := rounds(160)
	quantumGrowth := q2 / q1
	classicalGrowth := c2 / c1
	// sqrt scaling predicts 2x for quantum; linear predicts 4x for
	// classical. Require a clear separation.
	if quantumGrowth > 3 {
		t.Errorf("quantum growth %.2fx for 4x n; want ~2x", quantumGrowth)
	}
	if classicalGrowth < 3.2 {
		t.Errorf("classical growth %.2fx for 4x n; want ~4x", classicalGrowth)
	}
	if quantumGrowth >= classicalGrowth {
		t.Errorf("no separation: quantum %.2fx vs classical %.2fx", quantumGrowth, classicalGrowth)
	}
}

// The evaluation procedure's round count must not depend on u0 — checked
// internally by the optimizer, which would fail with
// ErrInconsistentRounds; a passing run certifies input independence.
func TestEvaluationRoundUniformity(t *testing.T) {
	g := graph.RandomConnected(20, 0.12, 17)
	if _, err := ExactDiameter(g, Options{Seed: 2}); err != nil {
		t.Fatalf("optimizer rejected evaluation: %v", err)
	}
}

func TestMemoryIsPolylog(t *testing.T) {
	g := graph.RandomConnected(64, 0.07, 19)
	res, err := ExactDiameter(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// O((log n)^2) with small constants: log2(65) = 7 bits per register.
	if res.NodeQubits > 64 {
		t.Errorf("node qubits %d", res.NodeQubits)
	}
	if res.LeaderQubits > 300 {
		t.Errorf("leader qubits %d", res.LeaderQubits)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).delta() != 0.1 {
		t.Error("default delta")
	}
	if (Options{Delta: 2}).delta() != 0.1 {
		t.Error("invalid delta not defaulted")
	}
	if (Options{Delta: 0.3}).delta() != 0.3 {
		t.Error("explicit delta ignored")
	}
}

// The ApproxDiameter accounting bug fix: the probe Preprocess that chooses
// the sample size s is a real distributed phase, so its rounds must be
// charged to InitRounds together with the [HPRW14] preparation's. The test
// reconstructs both phases independently and checks the sum.
func TestApproxProbeRoundsCharged(t *testing.T) {
	g := graph.RandomConnected(80, 0.07, 3)
	const seed = int64(3)

	infoProbe, probeM, err := congest.Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	if probeM.Rounds <= 0 {
		t.Fatal("probe preprocessing reported no rounds")
	}
	// Replicate ApproxDiameter's default sample-size rule.
	n := g.N()
	s := int(math.Ceil(math.Pow(float64(n), 2.0/3.0) / math.Pow(math.Max(1, float64(infoProbe.D)), 1.0/3.0)))
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	topo, err := congest.NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	_, prepM, err := congest.PrepareApproxOn(topo, s, seed)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ApproxDiameter(g, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if want := probeM.Rounds + prepM.Rounds; res.InitRounds != want {
		t.Errorf("InitRounds = %d, want probe %d + preparation %d = %d",
			res.InitRounds, probeM.Rounds, prepM.Rounds, want)
	}
}

// Negative Parallel and a NaN Delta are caller bugs, rejected with an
// explicit error naming the field by every entry point before any topology
// or session is built; Parallel 0 selects the automatic CPU budget and 1
// sequential evaluation.
func TestNegativeOptionsRejected(t *testing.T) {
	g := graph.RandomConnected(12, 0.2, 1)
	wg := graph.WithWeights(graph.RandomConnected(12, 0.2, 1), 5, 2)
	for name, run := range map[string]func(Options) error{
		"ExactDiameterSimple": func(o Options) error { _, err := ExactDiameterSimple(g, o); return err },
		"ExactDiameter":       func(o Options) error { _, err := ExactDiameter(g, o); return err },
		"ApproxDiameter":      func(o Options) error { _, err := ApproxDiameter(g, o); return err },
		"Radius":              func(o Options) error { _, err := Radius(g, o); return err },
		"WeightedDiameter":    func(o Options) error { _, err := WeightedDiameter(wg, o); return err },
		"WeightedRadius":      func(o Options) error { _, err := WeightedRadius(wg, o); return err },
		"Eccentricities":      func(o Options) error { _, err := Eccentricities(g, o); return err },
		"APSP":                func(o Options) error { _, err := APSP(wg, o, nil); return err },
		"TriangleDetect":      func(o Options) error { _, err := TriangleDetect(g, o); return err },
		"TriangleCount":       func(o Options) error { _, err := TriangleCount(g, o); return err },
		"MinTreeCut":          func(o Options) error { _, err := MinTreeCut(wg, o); return err },
	} {
		if err := run(Options{Parallel: -2}); err == nil {
			t.Errorf("%s: Parallel -2 accepted", name)
		}
		if err := run(Options{Delta: math.NaN()}); err == nil || !strings.Contains(err.Error(), "Options.Delta") {
			t.Errorf("%s: NaN Delta: err %v, want one naming Options.Delta", name, err)
		}
		if err := run(Options{}); err != nil {
			t.Errorf("%s: zero Options: %v", name, err)
		}
	}
}

// TestEntryPointsReturnEngineErrors runs every entry point on two starved
// engines. At 1 bit no message fits, so the first CONGEST execution, the
// leader election, fails. At 14 bits the preprocessing (leader election
// and BFS tree) of the 12-vertex graph fits but the phase after it does
// not: the preparation, the oracle build or an Evaluation, whose error a
// query puts behind "evaluate <x>: ". Weights up to 1000 widen the weighted
// wire fields past 14 bits. Either failure must come back as that phase's
// error, never as a panic or a result.
func TestEntryPointsReturnEngineErrors(t *testing.T) {
	g := graph.RandomConnected(12, 0.2, 1)
	wg := graph.WithWeights(g, 1000, 2)
	for _, tc := range []struct {
		name, late string
		run        func(o Options) error
	}{
		{"ExactDiameter", "wave process", func(o Options) error { _, err := ExactDiameter(g, o); return err }},
		{"ExactDiameterSimple", "wave process", func(o Options) error { _, err := ExactDiameterSimple(g, o); return err }},
		{"ApproxDiameter", "convergecast", func(o Options) error { _, err := ApproxDiameter(g, o); return err }},
		{"Radius", "wave process", func(o Options) error { _, err := Radius(g, o); return err }},
		{"Eccentricities", "wave process", func(o Options) error { _, err := Eccentricities(g, o); return err }},
		{"SublinearEccentricities", "skeleton relaxation from 0", func(o Options) error {
			o.Sublinear = true
			_, err := Eccentricities(wg, o)
			return err
		}},
		{"WeightedDiameter", "weighted sssp", func(o Options) error { _, err := WeightedDiameter(wg, o); return err }},
		{"SublinearWeightedDiameter", "skeleton relaxation from 0", func(o Options) error {
			o.Sublinear = true
			_, err := WeightedDiameter(wg, o)
			return err
		}},
		{"WeightedRadius", "weighted sssp", func(o Options) error { _, err := WeightedRadius(wg, o); return err }},
		{"TriangleDetect", "triangle convergecast", func(o Options) error { _, err := TriangleDetect(g, o); return err }},
		{"TriangleCount", "triangle convergecast", func(o Options) error { _, err := TriangleCount(g, o); return err }},
		{"MinTreeCut", "cut convergecast", func(o Options) error { _, err := MinTreeCut(wg, o); return err }},
		{"APSP", "skeleton relaxation from 0", func(o Options) error { _, err := APSP(wg, o, nil); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			for _, c := range []struct {
				bandwidth int
				phase     string
			}{{1, "leader election"}, {14, tc.late}} {
				err := tc.run(Options{Seed: 1, Engine: []congest.Option{congest.WithBandwidth(c.bandwidth)}})
				if err == nil || !strings.Contains(err.Error(), c.phase+": ") {
					t.Errorf("bandwidth %d: err = %v, want a %q error", c.bandwidth, err, c.phase)
				}
			}
		})
	}
}

// A Figure 2 Evaluation fails before its walk when its input check
// rejects the input, and with the walk's error when the walk breaks the
// bandwidth.
func TestWalkEccEvalErrors(t *testing.T) {
	in, _, err := prologue(graph.RandomConnected(12, 0.2, 1), Options{Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	outside := errors.New("outside")
	family := in.walkEccFamily(in.info, in.info.Children, 2*in.info.D, 6*in.info.D+2,
		func(u0 int) error {
			if u0 == 3 {
				return outside
			}
			return nil
		})
	if _, _, err := family().Eval(3); err != outside {
		t.Errorf("rejected input: err = %v, want the check's error", err)
	}
	in.opts.Engine = []congest.Option{congest.WithBandwidth(1)}
	if _, _, err := family().Eval(0); err == nil || !strings.HasPrefix(err.Error(), "token walk: ") {
		t.Errorf("starved walk: err = %v, want a token walk error", err)
	}
}
