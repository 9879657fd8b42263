package core

import (
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// The quantum algorithms drive many CONGEST executions per run (one per
// optimization step); their outputs and full cost accounting must be
// independent of the engine's worker count. Together with the engine-level
// tests in internal/congest this closes the determinism argument end to
// end: identical Evaluation values and rounds imply identical amplitude-
// amplification trajectories and therefore identical Results.
func TestQuantumExactDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(96, 0.06, seed)
		want, err := ExactDiameter(g, Options{Seed: seed, Engine: []congest.Option{congest.WithWorkers(1)}})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		// Overshoot is impossible (every Evaluation returns a real
		// eccentricity <= D); undershoot is a permitted delta-probability
		// failure, so exactness is deliberately not asserted per seed.
		if want.Diameter > truth {
			t.Fatalf("seed %d: diameter %d overshoots truth %d", seed, want.Diameter, truth)
		}
		for _, k := range []int{2, 8} {
			got, err := ExactDiameter(g, Options{Seed: seed, Engine: []congest.Option{congest.WithWorkers(k)}})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d workers %d: Result %+v, want %+v", seed, k, got, want)
			}
		}
	}
}

func TestQuantumApproxDeterministicAcrossWorkers(t *testing.T) {
	g := graph.RandomConnected(80, 0.07, 2)
	want, err := ApproxDiameter(g, Options{Seed: 2, Engine: []congest.Option{congest.WithWorkers(1)}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApproxDiameter(g, Options{Seed: 2, Engine: []congest.Option{congest.WithWorkers(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("workers 8: Result %+v, want %+v", got, want)
	}
}

// The frontier scheduler's execution knobs are pure execution strategy: a
// full quantum optimization — hundreds of session-reused Evaluations, every
// framework counter — must produce the identical Result under worker
// sharding and parallel evaluation contexts, alone or combined, as the
// serial run.
func TestQuantumDeterministicAcrossSchedulers(t *testing.T) {
	g := graph.RandomConnected(96, 0.06, 4)
	want, err := ExactDiameter(g, Options{Seed: 4, Engine: []congest.Option{congest.WithWorkers(1)}})
	if err != nil {
		t.Fatal(err)
	}
	configs := [][]congest.Option{
		{congest.WithWorkers(2)},
		{congest.WithWorkers(8)},
	}
	for i, engine := range configs {
		got, err := ExactDiameter(g, Options{Seed: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("config %d: Result %+v, want %+v", i, got, want)
		}
	}
	got, err := ExactDiameter(g, Options{Seed: 4, Parallel: 3, Engine: configs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("workers 8 + parallel 3: Result %+v, want %+v", got, want)
	}

	wantApprox, err := ApproxDiameter(g, Options{Seed: 4, Engine: []congest.Option{congest.WithWorkers(1)}})
	if err != nil {
		t.Fatal(err)
	}
	gotApprox, err := ApproxDiameter(g, Options{Seed: 4, Parallel: 3, Engine: []congest.Option{congest.WithWorkers(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if gotApprox != wantApprox {
		t.Errorf("approx under workers 8 + parallel 3: Result %+v, want %+v", gotApprox, wantApprox)
	}
}

// Options.Parallel clones the evaluation sessions into a pool and batches
// the domain; because evaluations are deterministic and input-independent,
// the Result — value, rounds, every counter — must be identical to the
// sequential execution for any parallelism level, alone or combined with
// engine workers.
func TestQuantumParallelEvaluationDeterministic(t *testing.T) {
	g := graph.RandomConnected(96, 0.06, 6)
	want, err := ExactDiameter(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		got, err := ExactDiameter(g, Options{Seed: 6, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parallel %d: Result %+v, want %+v", par, got, want)
		}
	}
	got, err := ExactDiameter(g, Options{Seed: 6, Parallel: 3, Engine: []congest.Option{congest.WithWorkers(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("parallel 3 + workers 2: Result %+v, want %+v", got, want)
	}

	wantSimple, err := ExactDiameterSimple(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gotSimple, err := ExactDiameterSimple(g, Options{Seed: 6, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gotSimple != wantSimple {
		t.Errorf("simple, parallel 3: Result %+v, want %+v", gotSimple, wantSimple)
	}

	wantApprox, err := ApproxDiameter(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	gotApprox, err := ApproxDiameter(g, Options{Seed: 6, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gotApprox != wantApprox {
		t.Errorf("approx, parallel 4: Result %+v, want %+v", gotApprox, wantApprox)
	}
}

// Every CONGEST execution a quantum algorithm drives — preprocessing,
// walks, waves, convergecasts, the [HPRW14] preparation — runs clean under
// strict wire accounting: the documented size formula of every message the
// Evaluations emit matches its encoded length. Strict checking is also
// engine-invariant: it must not perturb the results.
func TestQuantumAlgorithmsUnderStrictAccounting(t *testing.T) {
	g := graph.RandomConnected(64, 0.08, 5)
	want, err := ExactDiameter(g, Options{Seed: 5, Engine: []congest.Option{congest.WithWorkers(1)}})
	if err != nil {
		t.Fatal(err)
	}
	strict := []congest.Option{congest.WithStrictAccounting(), congest.WithWorkers(3)}
	got, err := ExactDiameter(g, Options{Seed: 5, Engine: strict})
	if err != nil {
		t.Fatalf("exact diameter under strict accounting: %v", err)
	}
	if got != want {
		t.Errorf("strict accounting changed the result: %+v, want %+v", got, want)
	}
	if _, err := ApproxDiameter(g, Options{Seed: 5, Engine: strict}); err != nil {
		t.Fatalf("approx diameter under strict accounting: %v", err)
	}
	if _, err := ExactDiameterSimple(g, Options{Seed: 5, Engine: strict}); err != nil {
		t.Fatalf("simple exact diameter under strict accounting: %v", err)
	}
}
