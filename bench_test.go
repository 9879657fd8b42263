package qcongest

// One benchmark per artifact of the paper's evaluation: the rows of
// Table 1 and the figure experiments (see the per-experiment index in
// DESIGN.md). Each benchmark reports the domain metric — distributed
// rounds, messages, or qubits — via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's comparisons. EXPERIMENTS.md records the measured
// values against the theory.

import (
	"math/rand"
	"runtime"
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/simulation"
)

func benchGraph(b *testing.B, n, d int) *Graph {
	b.Helper()
	g, err := LollipopWithDiameter(n, d)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Table 1, row "Exact computation", classical column: Theta(n). ---

func BenchmarkTable1ExactClassical(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := congest.ClassicalExactDiameter(g)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Metrics.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, row "Exact computation", quantum column: Õ(sqrt(nD)). ---

func BenchmarkTable1ExactQuantum(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumExactDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// Section 3.1 ablation: the simpler Õ(sqrt(n)D) algorithm, for comparison
// with the final Theorem 1 algorithm.
func BenchmarkTable1ExactQuantumSimple(b *testing.B) {
	g := benchGraph(b, 80, 4)
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := QuantumExactDiameterSimple(g, QuantumOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}

// Theorem 1's D-dependence: rounds ~ sqrt(D) with n fixed.
func BenchmarkTable1ExactQuantumDSweep(b *testing.B) {
	for _, d := range []int{3, 6, 12} {
		g := benchGraph(b, 60, d)
		b.Run("D="+itoa(d), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumExactDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, row "3/2-approximation". ---

func BenchmarkTable1ApproxClassical(b *testing.B) {
	for _, n := range []int{40, 120} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := ClassicalApproxDiameter(g, 0, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				total += res.Metrics.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

func BenchmarkTable1ApproxQuantum(b *testing.B) {
	for _, n := range []int{40, 120} {
		g := benchGraph(b, n, 4)
		b.Run(sizeName(n), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				res, err := QuantumApproxDiameter(g, QuantumOptions{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// --- Table 1, rows "lower bounds": the Theorem 5 tradeoff and the
// Theorem 10 conversion. ---

func BenchmarkTable1DisjTradeoff(b *testing.B) {
	for _, budget := range []int{16, 64, 256} {
		b.Run("r="+itoa(budget), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			totalQubits := 0
			for i := 0; i < b.N; i++ {
				x, y := RandomIntersectingPair(4096, rng)
				blocks := (budget / 4) * (budget / 4)
				if blocks > 4096 {
					blocks = 4096
				}
				res, err := BlockedGroverDisj(x, y, blocks, rng)
				if err != nil {
					b.Fatal(err)
				}
				totalQubits += res.Metrics.Qubits
			}
			b.ReportMetric(float64(totalQubits)/float64(b.N), "qubits")
		})
	}
}

func BenchmarkTable1LowerBoundSqrtN(b *testing.B) {
	red, err := NewHW12Reduction(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	totalBits := 0
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		res, err := TwoPartyFromCongest(red, x, y)
		if err != nil {
			b.Fatal(err)
		}
		totalBits += res.CutBits
	}
	b.ReportMetric(float64(totalBits)/float64(b.N), "cut-bits")
}

// --- Figure experiments. ---

// Figure 1: BFS construction is O(D) rounds.
func BenchmarkFigureF1BFS(b *testing.B) {
	g := RandomConnected(120, 0.05, 9)
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		_, m, err := congest.Preprocess(g)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += m.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
}

// Figure 2: one Evaluation execution is O(D) rounds regardless of u0.
func BenchmarkFigureF2Evaluation(b *testing.B) {
	g := RandomConnected(100, 0.06, 10)
	info, _, err := congest.Preprocess(g)
	if err != nil {
		b.Fatal(err)
	}
	totalRounds := 0
	for i := 0; i < b.N; i++ {
		u0 := i % g.N()
		tau, mw, err := congest.TokenWalk(g, info, info.Children, u0, 2*info.D)
		if err != nil {
			b.Fatal(err)
		}
		_, mr, err := congest.EccentricitiesOf(g, info, tau, 6*info.D+2)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += mw.Rounds + mr.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
}

// Figure 4: building and checking the Theorem 8 graph.
func BenchmarkFigureF4HW12(b *testing.B) {
	red, err := NewHW12Reduction(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		g, err := red.Build(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Diameter(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 6-7: the Theorem 11 two-party simulation; the metric is messages
// per run (O(r/d)).
func BenchmarkFigureF6F7Simulation(b *testing.B) {
	for _, d := range []int{4, 16} {
		b.Run("d="+itoa(d), func(b *testing.B) {
			alg := simulation.NewRelayAlgorithm(d, func(x, y uint64) uint64 { return x ^ y })
			totalMsgs := 0
			for i := 0; i < b.N; i++ {
				res, err := alg.RunTwoParty(uint64(i), uint64(2*i+1))
				if err != nil {
					b.Fatal(err)
				}
				totalMsgs += res.Metrics.Messages
			}
			b.ReportMetric(float64(totalMsgs)/float64(b.N), "messages")
		})
	}
}

// Figure 8: subdivided graphs G'_n(x, y) and their diameters.
func BenchmarkFigureF8Subdivided(b *testing.B) {
	red, err := NewACHK16Reduction(16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < b.N; i++ {
		x, y := RandomIntersectingPair(red.K, rng)
		sub, err := BuildSubdivided(red, x, y, 6)
		if err != nil {
			b.Fatal(err)
		}
		diam, err := sub.G.Diameter()
		if err != nil {
			b.Fatal(err)
		}
		if diam != sub.RightDiameter {
			b.Fatalf("diameter %d, want %d", diam, sub.RightDiameter)
		}
	}
}

// Lemma 1: coverage computation.
func BenchmarkFigureLemma1(b *testing.B) {
	g := RandomConnected(80, 0.06, 12)
	for i := 0; i < b.N; i++ {
		minProb, bound, err := Lemma1Coverage(g)
		if err != nil {
			b.Fatal(err)
		}
		if minProb < bound {
			b.Fatalf("coverage %g below bound %g", minProb, bound)
		}
	}
}

// --- Engine benchmark: sequential reference engine vs the sharded engine.
//
// The workload is max-id leader election (congest.LeaderElectNode): every
// vertex floods improvements, so rounds carry work at every node — the
// engine's per-round machinery (send validation, buffering, merge, receive
// dispatch) dominates, which is exactly what this benchmark isolates. The
// same workload and graphs back the speedup table in EXPERIMENTS.md.

// engineBenchGraph builds one of the three benchmark families.
func engineBenchGraph(kind string, n int) *Graph {
	switch kind {
	case "path":
		return Path(n)
	case "random":
		return RandomConnected(n, 8/float64(n), int64(n))
	case "smallworld":
		return SmallWorld(n, 2, 0.2, int64(n))
	default:
		panic("unknown engine benchmark graph " + kind)
	}
}

// runEngineWorkload executes one leader election and returns the executed
// rounds. run selects the engine: (*Network).RunReference or (*Network).Run.
func runEngineWorkload(g *Graph, workers int, run func(*congest.Network, int) error) (int, error) {
	nw, err := congest.NewNetwork(g, func(v int) congest.Node { return congest.NewLeaderElectNode() },
		congest.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	if err := run(nw, 4*g.N()+16); err != nil {
		return 0, err
	}
	return nw.Metrics().Rounds, nil
}

func BenchmarkEngine(b *testing.B) {
	for _, kind := range []string{"path", "random", "smallworld"} {
		for _, n := range []int{256, 1024} {
			g := engineBenchGraph(kind, n)
			b.Run(kind+"/"+sizeName(n)+"/reference", func(b *testing.B) {
				b.ReportAllocs()
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					r, err := runEngineWorkload(g, 1, (*congest.Network).RunReference)
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += r
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
			})
			b.Run(kind+"/"+sizeName(n)+"/engine", func(b *testing.B) {
				b.ReportAllocs()
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					r, err := runEngineWorkload(g, runtime.NumCPU(), (*congest.Network).Run)
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += r
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkEvalSession is the allocation canary for the session layer: one
// warm Figure 2 Evaluation per iteration. Run with -benchmem; allocs/op
// regressing from single digits means a session stopped recycling state.
func BenchmarkEvalSession(b *testing.B) {
	g := Path(256)
	topo, err := NewCongestTopology(g)
	if err != nil {
		b.Fatal(err)
	}
	info, _, err := congest.PreprocessOn(topo, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	walk := congest.NewWalkSession(topo, info, info.Children, 2*info.D, WithWorkers(1))
	defer walk.Close()
	ecc := congest.NewEccSession(topo, info, 6*info.D+2, WithWorkers(1))
	defer ecc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tau, _, err := walk.Eval(i % g.N())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ecc.Eval(tau); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string { return "n=" + itoa(n) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Distance-parameter suite: quantum Eccentricities on reused sessions. ---

// BenchmarkEccSuite is the CI allocation canary for the suite: one full
// quantum Eccentricities vector (one warm Evaluation per vertex on reused
// sessions) per iteration.
func BenchmarkEccSuite(b *testing.B) {
	g := Path(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Eccentricities(g, QuantumOptions{Seed: 1, Engine: []EngineOption{WithWorkers(1)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ecc) != g.N() {
			b.Fatalf("ecc vector length %d", len(res.Ecc))
		}
	}
}

// --- Quantum APSP: the skeleton-oracle sweep (EXPERIMENTS.md, "Quantum
// APSP"). ---

// BenchmarkApsp is the CI canary for the APSP sweep: one full n-source
// sweep per iteration, reporting the measured per-source round cost (the
// domain metric the papers bound by Õ(sqrt(n) + D)). The workload is a
// sparse weighted Erdős–Rényi graph above the S = V cutoff, so the
// sampled-skeleton (genuinely sublinear) code path runs.
func BenchmarkApsp(b *testing.B) {
	g := WithWeights(RandomConnected(256, 8.0/256, 1), 9, 2)
	b.Run("er/n=256", func(b *testing.B) {
		b.ReportAllocs()
		var res ApspResult
		for i := 0; i < b.N; i++ {
			r, err := APSP(g, QuantumOptions{Seed: 1}, nil)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(res.EvalRounds), "rounds/eval")
		b.ReportMetric(float64(res.Sources)*float64(b.N)/b.Elapsed().Seconds(), "evals/sec")
	})
}
