package amplify

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"qcongest/internal/qsim"
)

func uniformOver(n int, t *testing.T) *qsim.Sparse {
	t.Helper()
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	phi, err := qsim.NewUniform(keys)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

func TestSearchFindsUniqueMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phi := uniformOver(64, t)
	hits := 0
	const trials = 50
	totalIters := 0
	for i := 0; i < trials; i++ {
		x, c, err := Search(phi, func(k int) bool { return k == 37 }, 200, rng)
		if err == nil && x == 37 {
			hits++
		}
		totalIters += c.GroverIterations
	}
	if hits < trials*9/10 {
		t.Errorf("found marked element only %d/%d times", hits, trials)
	}
	// Expected iterations O(sqrt(64)) = 8; allow generous constant.
	if avg := float64(totalIters) / trials; avg > 60 {
		t.Errorf("average iterations %g, want O(sqrt(N)) = 8-ish", avg)
	}
}

func TestSearchEmptyMarkedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	phi := uniformOver(32, t)
	_, c, err := Search(phi, func(int) bool { return false }, 40, rng)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if c.GroverIterations < 40 {
		t.Errorf("budget not exhausted: %d iterations", c.GroverIterations)
	}
}

// The sqrt speedup: iterations to find one marked item among N scale like
// sqrt(N), not N. Check the ratio between N=256 and N=16 is near
// sqrt(256/16)=4, far below the classical 16.
func TestSearchSqrtScaling(t *testing.T) {
	avgIters := func(n int) float64 {
		rng := rand.New(rand.NewSource(11))
		phi := uniformOver(n, t)
		total := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			_, c, err := Search(phi, func(k int) bool { return k == n-1 }, 50*n, rng)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			total += c.GroverIterations
		}
		return float64(total) / trials
	}
	small, large := avgIters(16), avgIters(256)
	ratio := large / small
	if ratio > 9 {
		t.Errorf("iteration ratio %g suggests super-sqrt scaling (small=%g large=%g)", ratio, small, large)
	}
}

func TestFindMaxCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	phi := uniformOver(100, t)
	f := func(x int) int { return -(x - 63) * (x - 63) } // max at 63
	hits := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		res, err := FindMax(phi, f, 1.0/100, 0.1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Argmax == 63 {
			hits++
		}
	}
	if hits < trials*8/10 {
		t.Errorf("FindMax hit the maximum %d/%d times", hits, trials)
	}
}

func TestFindMaxPlateau(t *testing.T) {
	// Many maximizers: eps is large, so few iterations should be needed.
	rng := rand.New(rand.NewSource(9))
	phi := uniformOver(64, t)
	f := func(x int) int {
		if x >= 32 {
			return 5
		}
		return x % 5
	}
	res, err := FindMax(phi, f, 0.5, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 5 {
		t.Errorf("value = %d, want 5", res.Value)
	}
	if res.Counters.GroverIterations > 200 {
		t.Errorf("easy instance used %d iterations", res.Counters.GroverIterations)
	}
}

func TestFindMaxParameterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	phi := uniformOver(8, t)
	f := func(x int) int { return x }
	if _, err := FindMax(phi, f, 0, 0.1, rng); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := FindMax(phi, f, 2, 0.1, rng); err == nil {
		t.Error("eps=2 accepted")
	}
	if _, err := FindMax(phi, f, 0.1, 0, rng); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := FindMax(phi, f, 0.1, 1, rng); err == nil {
		t.Error("delta=1 accepted")
	}
	if _, err := FindMax(phi, f, math.NaN(), 0.1, rng); err == nil {
		t.Error("eps=NaN accepted")
	}
	if _, err := FindMax(phi, f, 0.1, math.NaN(), rng); err == nil {
		t.Error("delta=NaN accepted")
	}
}

// FindMax iteration count scales like sqrt(1/eps) = sqrt(N) for a unique
// maximizer under the uniform distribution, times log factors.
func TestFindMaxSqrtScaling(t *testing.T) {
	avg := func(n int) float64 {
		rng := rand.New(rand.NewSource(13))
		phi := uniformOver(n, t)
		f := func(x int) int { return x }
		total := 0
		const trials = 25
		for i := 0; i < trials; i++ {
			res, err := FindMax(phi, f, 1/float64(n), 0.2, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Counters.GroverIterations
		}
		return float64(total) / trials
	}
	small, large := avg(16), avg(256)
	// sqrt scaling predicts ratio ~4 (with log factors); classical would
	// be 16. Allow up to 10.
	if r := large / small; r > 10 {
		t.Errorf("scaling ratio %g (small=%g large=%g)", r, small, large)
	}
}

// The counter relation documented in the package comment: each iteration
// contributes 2 Setup and 2 Evaluation applications (plus per-measurement
// overhead).
func TestCounterAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	phi := uniformOver(64, t)
	_, c, err := Search(phi, func(k int) bool { return k == 1 }, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.SetupCalls != 2*c.GroverIterations+c.Measurements {
		t.Errorf("SetupCalls=%d, want 2*%d+%d", c.SetupCalls, c.GroverIterations, c.Measurements)
	}
	if c.EvaluationCalls != 2*c.GroverIterations+c.Measurements {
		t.Errorf("EvaluationCalls=%d, want 2*%d+%d", c.EvaluationCalls, c.GroverIterations, c.Measurements)
	}
}

// Amplitude amplification success probability after the optimal number of
// iterations should be near 1 (sanity for the underlying qsim plumbing).
func TestOptimalIterationSweetSpot(t *testing.T) {
	phi := uniformOver(1024, t)
	marked := func(k int) bool { return k == 512 }
	s := phi.Clone()
	pos := phi.Mark(marked, nil)
	kOpt := int(math.Round(math.Pi / 4 * math.Sqrt(1024)))
	for i := 0; i < kOpt; i++ {
		s.FlipAt(pos)
		s.ReflectAbout(phi)
	}
	// P(marked) = |<512|s>|², the one marked label's squared amplitude.
	basis, err := qsim.NewUniform([]int{512})
	if err != nil {
		t.Fatal(err)
	}
	a := basis.InnerProduct(s)
	if p := real(a)*real(a) + imag(a)*imag(a); p < 0.99 {
		t.Errorf("P(marked) after %d iterations = %g", kOpt, p)
	}
}

// FindMax restores one scratch state in place for every measurement
// attempt, so its allocations are a small constant: they do not grow with
// the number of restarts, which a smaller eps multiplies.
func TestFindMaxAllocsIndependentOfRestarts(t *testing.T) {
	phi := uniformOver(256, t)
	f := func(x int) int { return (x * 37) % 256 }
	rng := rand.New(rand.NewSource(5))
	allocs := func(eps float64) (float64, int) {
		var restarts int
		a := testing.AllocsPerRun(20, func() {
			rng.Seed(5)
			res, err := FindMax(phi, f, eps, 0.1, rng)
			if err != nil {
				t.Fatal(err)
			}
			restarts = res.Counters.Measurements
		})
		return a, restarts
	}
	few, fewRestarts := allocs(0.5)
	many, manyRestarts := allocs(1.0 / 256)
	if manyRestarts <= 2*fewRestarts {
		t.Fatalf("eps sweep did not multiply the restarts: %d vs %d", manyRestarts, fewRestarts)
	}
	if few != many || many > 2 {
		t.Errorf("FindMax allocates %.0f objects at %d restarts and %.0f at %d, want one constant <= 2",
			few, fewRestarts, many, manyRestarts)
	}
}

// FindAll's contract: parameter and domain errors, an empty marked set
// costing exactly one fruitless pass, a full marked set stopping at |M| =
// size without a fruitless pass, and counters that sum over the passes.
func TestFindAll(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		name   string
		size   int
		marked func(int) bool
		delta  float64
		want   int  // |M|
		err    bool // FindAll must fail
	}{
		{"delta-zero", n, func(int) bool { return true }, 0, 0, true},
		{"delta-one", n, func(int) bool { return true }, 1, 0, true},
		{"delta-NaN", n, func(int) bool { return true }, math.NaN(), 0, true},
		{"empty-state", 0, func(int) bool { return true }, 0.1, 0, true},
		{"none-marked", n, func(int) bool { return false }, 0.1, 0, false},
		{"one-marked", n, func(k int) bool { return k == 9 }, 0.1, 1, false},
		{"some-marked", n, func(k int) bool { return k%5 == 0 }, 0.1, 7, false},
		{"all-marked", n, func(int) bool { return true }, 0.1, n, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var phi *qsim.Sparse
			if tc.size == 0 {
				phi = &qsim.Sparse{}
			} else {
				phi = uniformOver(tc.size, t)
			}
			all, c, err := FindAll(phi, tc.marked, tc.delta, rand.New(rand.NewSource(3)))
			if tc.err {
				if err == nil || (tc.size == 0) != errors.Is(err, qsim.ErrEmptyDomain) {
					t.Fatalf("FindAll = %v, %v; want a parameter or empty-domain error", all, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != tc.want {
				t.Fatalf("found %d elements %v, want %d", len(all), all, tc.want)
			}
			// Replay the passes on a second rng of the same seed: each
			// search over the not-yet-found marked set must reproduce
			// FindAll's element, and the counters must sum to FindAll's.
			rng := rand.New(rand.NewSource(3))
			found := map[int]bool{}
			var sum Counters
			passes := 0
			for {
				x, pass, err := Search(phi, func(k int) bool { return tc.marked(k) && !found[k] }, Budget(tc.size, tc.delta), rng)
				sum.add(pass)
				passes++
				if err != nil {
					break
				}
				if found[x] || x != all[len(found)] {
					t.Fatalf("pass %d found %d, FindAll %v", passes, x, all)
				}
				found[x] = true
				if len(found) == tc.size {
					break
				}
			}
			if len(found) != len(all) || sum != c {
				t.Errorf("passes sum to %d found, %+v; FindAll %d, %+v", len(found), sum, len(all), c)
			}
			wantPasses := tc.want + 1
			if tc.want == tc.size {
				wantPasses = tc.want // no fruitless pass
			}
			if c.Measurements < wantPasses || passes != wantPasses {
				t.Errorf("%d passes, %d measurements, want %d passes", passes, c.Measurements, wantPasses)
			}
			if tc.want == 0 && c.GroverIterations != Budget(tc.size, tc.delta) {
				t.Errorf("fruitless pass ran %d iterations, want the budget %d", c.GroverIterations, Budget(tc.size, tc.delta))
			}
		})
	}
}

// The budget of a search pass and of a FindMax phase are the Theorem 6
// expressions int(boost·ceil(3·sqrt(size)))+1 and int(boost·ceil(3/sqrt(eps')))+1
// with boost = max(1, ceil(ln(1/delta))), evaluated in exactly this float
// order: the golden suite pins the iteration counts they produce.
func TestBudgetPinned(t *testing.T) {
	boost := func(delta float64) float64 { return math.Max(1, math.Ceil(math.Log(1/delta))) }
	for _, delta := range []float64{1e-9, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.2, 1 / math.E, 0.5, 0.9, 0.999} {
		for size := 1; size <= 1<<12; size = size*3/2 + 1 {
			want := int(boost(delta)*math.Ceil(3*math.Sqrt(float64(size)))) + 1
			if got := Budget(size, delta); got != want {
				t.Errorf("Budget(%d, %g) = %d, want %d", size, delta, got, want)
			}
		}
		for epsPrime := 0.5; epsPrime > 1e-7; epsPrime /= 2 {
			want := int(boost(delta)*math.Ceil(3/math.Sqrt(epsPrime))) + 1
			if got := budget(3/math.Sqrt(epsPrime), delta); got != want {
				t.Errorf("FindMax phase budget(eps' %g, %g) = %d, want %d", epsPrime, delta, got, want)
			}
		}
	}
	// Spot values, independent of the expressions above.
	for _, tc := range []struct {
		size  int
		delta float64
		want  int
	}{{1, 0.5, 4}, {16, 0.1, 37}, {64, 0.1, 73}, {256, 0.1, 145}, {256, 0.5, 49}, {1000, 1e-6, 1331}} {
		if got := Budget(tc.size, tc.delta); got != tc.want {
			t.Errorf("Budget(%d, %g) = %d, want %d", tc.size, tc.delta, got, tc.want)
		}
	}
}
