package reduction

import (
	"math"
	"math/rand"
	"testing"

	"qcongest/internal/bitstring"
	"qcongest/internal/congest"
)

// End-to-end consistency of Theorem 3's chain: the ACHK16 reduction,
// subdivided by d, makes any diameter decider on n' = n + b*d nodes into a
// DISJ_k protocol whose bounded-round cost (Theorem 5) forces
// r = Omega(sqrt(k*d/(b+s))). The classical exact algorithm must respect
// that bound — its measured rounds on the subdivided instance must exceed
// the derived lower-bound curve — while staying within its O(n') upper
// bound.
func TestTheorem3ChainConsistency(t *testing.T) {
	red, err := NewACHK16(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{2, 6} {
		x, y := mustPair(t, bitstring.RandomIntersectingPair, red.K, rng)
		sub, err := BuildSubdivided(red, x, y, d)
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.ClassicalExactDiameter(sub.G)
		if err != nil {
			t.Fatal(err)
		}
		if res.Diameter != sub.RightDiameter {
			t.Fatalf("d=%d: diameter %d, want %d", d, res.Diameter, sub.RightDiameter)
		}
		// Lower-bound curve with s = O(log n) classical memory.
		s := congest.BitsForID(sub.G.N())
		_, t3 := LowerBoundRounds(red.K, red.B, d, s)
		if float64(res.Metrics.Rounds) < t3 {
			t.Errorf("d=%d: measured %d rounds below the Theorem 3 curve %g", d, res.Metrics.Rounds, t3)
		}
		// And the O(n') upper bound still holds.
		if res.Metrics.Rounds > 14*sub.G.N()+60 {
			t.Errorf("d=%d: %d rounds for n=%d", d, res.Metrics.Rounds, sub.G.N())
		}
	}
}

// The diameter of the subdivided graph grows linearly in d, so the
// Theorem 3 bound in terms of D' = d + 5 reads Omega(sqrt(n*D')/s) — the
// form quoted in Table 1. Check the algebra agrees with LowerBoundRounds.
func TestTheorem3BoundAlgebra(t *testing.T) {
	k, b, d, s := 1024, 11, 64, 8
	_, t3 := LowerBoundRounds(k, b, d, s)
	want := math.Sqrt(float64(k*d) / float64(b+s))
	if math.Abs(t3-want) > 1e-9 {
		t.Errorf("t3 = %g, want %g", t3, want)
	}
	// Monotonicity: more memory weakens the bound; larger d strengthens it.
	_, more := LowerBoundRounds(k, b, d, 4*s)
	if more >= t3 {
		t.Error("bound should shrink with memory")
	}
	_, deeper := LowerBoundRounds(k, b, 4*d, s)
	if deeper <= t3 {
		t.Error("bound should grow with d")
	}
}
