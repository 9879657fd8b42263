package query_test

import (
	"fmt"
	"math"
	"testing"

	"qcongest/internal/query"
)

// pointOracle is an in-memory Oracle with exactly one marked label: f(x) =
// 1 at target and 0 elsewhere, in a fixed 5 rounds. It is the tight case
// of every guarantee: one marked element for Search and Count, a unique
// maximizer of mass 1/n for Maximum.
type pointOracle struct{ n, target int }

func (o *pointOracle) Domain() []int {
	d := make([]int, o.n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (o *pointOracle) InitRounds() int           { return 0 }
func (o *pointOracle) SetupRounds() int          { return 1 }
func (o *pointOracle) NewContext() query.Context { return pointContext{o.target} }

type pointContext struct{ target int }

func (c pointContext) Eval(x int) (int, int, error) {
	if x == c.target {
		return 1, 5, nil
	}
	return 0, 5, nil
}

// binomialTail is P(X >= k) for X ~ Binomial(n, p).
func binomialTail(k, n int, p float64) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := k; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgR + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// clopperPearsonLower is the one-sided Clopper–Pearson lower confidence
// bound, at confidence conf, on a rate observed k times in n trials: the p
// at which P(X >= k) = 1-conf.
func clopperPearsonLower(k, n int, conf float64) float64 {
	if k == 0 {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		if mid := (lo + hi) / 2; binomialTail(k, n, mid) < 1-conf {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestFailureRateWithinDelta checks the randomized guarantee statistically,
// not at one seed: over 1000 fixed seeds per cell, Search must find the one
// marked label, Count must return exactly it, and Maximum at eps = 1/n must
// return the unique maximizer, each failing at a rate whose one-sided
// Clopper–Pearson lower bound at confidence 0.999 is at most delta.
func TestFailureRateWithinDelta(t *testing.T) {
	const (
		trials = 1000
		conf   = 0.999
	)
	// The bound itself: one event in 1000 trials has the closed form
	// 1-conf^(1/1000).
	if got, want := clopperPearsonLower(1, trials, conf), 1-math.Pow(conf, 1.0/trials); math.Abs(got-want) > 1e-12 {
		t.Fatalf("clopperPearsonLower(1, %d) = %g, want %g", trials, got, want)
	}
	isOne := func(v int) bool { return v == 1 }
	kinds := []struct {
		name string
		ok   func(o *pointOracle, opts query.Options) (bool, error)
	}{
		{"Search", func(o *pointOracle, opts query.Options) (bool, error) {
			r, err := query.Search(o, isOne, opts)
			return r.Found && r.X == o.target, err
		}},
		{"Count", func(o *pointOracle, opts query.Options) (bool, error) {
			r, err := query.Count(o, isOne, opts)
			return r.Count == 1 && r.All[0] == o.target, err
		}},
		{"Maximum", func(o *pointOracle, opts query.Options) (bool, error) {
			r, err := query.Maximum(o, 1/float64(o.n), opts)
			return r.X == o.target && r.Value == 1, err
		}},
	}
	for _, kind := range kinds {
		for _, delta := range []float64{0.1, 0.5} {
			for _, n := range []int{16, 64, 256} {
				t.Run(fmt.Sprintf("%s/delta=%g/n=%d", kind.name, delta, n), func(t *testing.T) {
					t.Parallel()
					failures := 0
					for seed := 0; seed < trials; seed++ {
						o := &pointOracle{n: n, target: seed % n}
						ok, err := kind.ok(o, query.Options{Delta: delta, Seed: int64(seed), Parallel: 1})
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if !ok {
							failures++
						}
					}
					t.Logf("%d/%d failures", failures, trials)
					if lo := clopperPearsonLower(failures, trials, conf); lo > delta {
						t.Errorf("%d/%d failures: failure rate >= %.3f at confidence %g, above delta %g",
							failures, trials, lo, conf, delta)
					}
				})
			}
		}
	}
}
