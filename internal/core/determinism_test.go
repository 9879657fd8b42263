package core

import (
	"testing"

	"qcongest/internal/congest"
	"qcongest/internal/graph"
)

// The quantum algorithms drive many CONGEST executions per run (one per
// optimization step); their outputs and full cost accounting must be
// independent of how many pool workers — cloned evaluation contexts,
// Options.Parallel — run the Evaluations. Together with the engine-level
// tests in internal/congest this closes the determinism argument end to
// end: identical Evaluation values and rounds imply identical amplitude-
// amplification trajectories and therefore identical Results.
func TestQuantumExactDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := graph.RandomConnected(96, 0.06, seed)
		want, err := ExactDiameter(g, Options{Seed: seed, Parallel: 1})
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
			got, err := ExactDiameter(g, Options{Seed: seed, Parallel: k})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seed %d parallel %d: Result %+v, want %+v", seed, k, got, want)
			}
		}
	}
}

func TestQuantumApproxDeterministicAcrossWorkers(t *testing.T) {
	g := graph.RandomConnected(80, 0.07, 2)
	want, err := ApproxDiameter(g, Options{Seed: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApproxDiameter(g, Options{Seed: 2, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("parallel 8: Result %+v, want %+v", got, want)
	}
}

// The execution strategy is invisible in the results: a full quantum
// optimization — hundreds of session-reused Evaluations, every framework
// counter — must produce the identical Result sequentially, under the
// automatic CPU budget and on explicit parallel evaluation contexts.
func TestQuantumDeterministicAcrossSchedulers(t *testing.T) {
	g := graph.RandomConnected(96, 0.06, 4)
	want, err := ExactDiameter(g, Options{Seed: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 3} {
		got, err := ExactDiameter(g, Options{Seed: 4, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parallel %d: Result %+v, want %+v", par, got, want)
		}
	}

	wantApprox, err := ApproxDiameter(g, Options{Seed: 4, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotApprox, err := ApproxDiameter(g, Options{Seed: 4, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gotApprox != wantApprox {
		t.Errorf("approx under parallel 3: Result %+v, want %+v", gotApprox, wantApprox)
	}
}

// Options.Parallel clones the evaluation sessions into a pool and batches
// the domain; because evaluations are deterministic and input-independent,
// the Result — value, rounds, every counter — must be identical to the
// sequential execution for any parallelism level.
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
	want, err := ExactDiameter(g, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	strict := []congest.Option{congest.WithStrictAccounting()}
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
