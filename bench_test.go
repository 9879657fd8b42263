package qcongest

// Allocation and throughput canaries for the library's hot paths, run once
// each by CI's bench smoke: the round engine, a warm Figure 2 Evaluation,
// the quantum Eccentricities suite, the classical [PRT12] baseline and the
// APSP sweep. The paper's
// per-artifact measurements (Table 1, the figures) are the cmd/table1 and
// cmd/figures commands; timed end-to-end runs are the bench/ module.

import (
	"strconv"
	"testing"

	"qcongest/internal/congest"
)

// --- Engine benchmark: the frontier engine behind Run vs its oracle,
// RunReference, which executes every vertex every round.
//
// The workload is max-id leader election (congest.LeaderElectNode): every
// vertex floods improvements, so rounds carry work at every node — the
// engine's per-round machinery (send validation, staging, delivery,
// receive dispatch) dominates, which is exactly what this benchmark
// isolates. ROADMAP item 6 gates on Run being no slower than RunReference
// here.

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
func runEngineWorkload(g *Graph, run func(*congest.Network, int) error) (int, error) {
	nw, err := congest.NewNetwork(g, func(v int) congest.Node { return congest.NewLeaderElectNode() })
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
					r, err := runEngineWorkload(g, (*congest.Network).RunReference)
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
					r, err := runEngineWorkload(g, (*congest.Network).Run)
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
// above 0 means a session stopped recycling state.
func BenchmarkEvalSession(b *testing.B) {
	g := Path(256)
	topo, err := NewCongestTopology(g)
	if err != nil {
		b.Fatal(err)
	}
	info, _, err := congest.PreprocessOn(topo)
	if err != nil {
		b.Fatal(err)
	}
	walk := congest.NewWalkSession(topo, info, info.Children, 2*info.D)
	ecc := congest.NewEccSession(topo, info, 6*info.D+2)
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

func sizeName(n int) string { return "n=" + strconv.Itoa(n) }

// --- Distance-parameter suite: quantum Eccentricities on reused sessions. ---

// BenchmarkEccSuite is the CI allocation canary for the suite: one full
// quantum Eccentricities vector (one warm Evaluation per vertex on reused
// sessions) per iteration.
func BenchmarkEccSuite(b *testing.B) {
	g := Path(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Eccentricities(g, QuantumOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Ecc) != g.N() {
			b.Fatalf("ecc vector length %d", len(res.Ecc))
		}
	}
}

// --- Classical baseline: the [PRT12] all-initiator wave. ---

// BenchmarkClassicalExact is the CI canary for the classical exact
// diameter: Theta(n) rounds in which every vertex starts a wave and relays
// every wave it hears. The engine's wake queue holds one entry per distinct
// far wake, O(n) per run; B/op growing quadratically in n (36.5 MB at
// n=1024, against 1.8 MB) means registrations are piling up again with
// every reception.
func BenchmarkClassicalExact(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g, err := RandomRegular(n, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		want, err := g.Diameter()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("rr4/"+sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			var res ClassicalResult
			for i := 0; i < b.N; i++ {
				if res, err = ClassicalExactDiameter(g); err != nil {
					b.Fatal(err)
				}
			}
			if res.Diameter != want {
				b.Fatalf("diameter %d, want %d", res.Diameter, want)
			}
			b.ReportMetric(float64(res.Metrics.Rounds), "rounds")
		})
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
