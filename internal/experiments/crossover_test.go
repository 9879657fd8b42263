package experiments

import (
	"math"
	"testing"
)

func synthetic(name string, c, e float64, ns []int) Series {
	s := Series{Name: name}
	for _, n := range ns {
		s.Points = append(s.Points, Point{N: n, Rounds: int(c * math.Pow(float64(n), e))})
	}
	return s
}

func TestFitPower(t *testing.T) {
	s := synthetic("lin", 7, 1, []int{50, 100, 200, 400})
	c, e, err := FitPower(s, func(p Point) float64 { return float64(p.N) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 0.02 || math.Abs(c-7) > 0.5 {
		t.Errorf("fit c=%g e=%g, want 7, 1", c, e)
	}
	if _, _, err := FitPower(Series{}, func(p Point) float64 { return 1 }); err == nil {
		t.Error("empty series accepted")
	}
}

func TestCrossoverN(t *testing.T) {
	classical := synthetic("c", 7, 1, []int{64, 128, 256, 512})
	quantum := synthetic("q", 3000, 0.5, []int{64, 128, 256, 512})
	// Crossover where 7n = 3000 sqrt(n): sqrt(n) = 3000/7 -> n ~ 183700.
	n, err := CrossoverN(classical, quantum)
	if err != nil {
		t.Fatal(err)
	}
	if n < 120000 || n > 260000 {
		t.Errorf("crossover n = %g, want ~1.8e5", n)
	}
	// Non-crossing curves error out.
	if _, err := CrossoverN(quantum, classical); err == nil {
		t.Error("non-crossing curves accepted")
	}
}

// End-to-end: fit the measured classical/quantum series and extrapolate
// the crossover; it must land far beyond the measured range (the
// constant-factor finding recorded in EXPERIMENTS.md) but be finite.
func TestMeasuredCrossoverExtrapolation(t *testing.T) {
	if testing.Short() {
		t.Skip("measured sweep")
	}
	classical, quantum, err := ExactComparison([]int{30, 60, 120}, 4, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := CrossoverN(classical, quantum)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Errorf("crossover %g implausibly small", n)
	}
	if n > 1e9 {
		t.Errorf("crossover %g implausibly large", n)
	}
}
