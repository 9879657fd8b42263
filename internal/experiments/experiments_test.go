package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

func TestSlopeFit(t *testing.T) {
	// Perfect sqrt scaling: rounds = 10*sqrt(n).
	s := Series{Name: "sqrt"}
	for _, n := range []int{16, 64, 256, 1024} {
		s.Points = append(s.Points, Point{N: n, Rounds: int(10 * math.Sqrt(float64(n)))})
	}
	slope := s.Slope(func(p Point) float64 { return float64(p.N) })
	if math.Abs(slope-0.5) > 0.02 {
		t.Errorf("slope = %g, want 0.5", slope)
	}
	// Linear scaling.
	s2 := Series{Name: "linear"}
	for _, n := range []int{16, 64, 256} {
		s2.Points = append(s2.Points, Point{N: n, Rounds: 7 * n})
	}
	if slope := s2.Slope(func(p Point) float64 { return float64(p.N) }); math.Abs(slope-1) > 0.02 {
		t.Errorf("slope = %g, want 1", slope)
	}
	// Degenerate series.
	if !math.IsNaN((Series{}).Slope(func(p Point) float64 { return 1 })) {
		t.Error("empty series should give NaN")
	}
}

func TestExactComparisonSmall(t *testing.T) {
	classical, quantum, err := ExactComparison([]int{24, 48}, 4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range classical.Points {
		if !p.OK {
			t.Errorf("classical wrong at n=%d: %d", p.N, p.Diameter)
		}
	}
	for _, p := range quantum.Points {
		if !p.OK {
			t.Errorf("quantum unreliable at n=%d", p.N)
		}
	}
	// Classical grows ~linearly: doubling n should roughly double rounds.
	c0, c1 := classical.Points[0].Rounds, classical.Points[1].Rounds
	if float64(c1) < 1.6*float64(c0) {
		t.Errorf("classical growth %d -> %d too slow for linear", c0, c1)
	}
	// Quantum grows like sqrt: well under 1.8x.
	q0, q1 := quantum.Points[0].Rounds, quantum.Points[1].Rounds
	if float64(q1) > 1.8*float64(q0) {
		t.Errorf("quantum growth %d -> %d too fast for sqrt", q0, q1)
	}
}

func TestLemma1Coverage(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(20),
		graph.RandomConnected(30, 0.1, 3),
		graph.CompleteBinaryTree(31),
	} {
		minProb, bound, err := Lemma1Coverage(g)
		if err != nil {
			t.Fatal(err)
		}
		if minProb < bound {
			t.Errorf("coverage %g below Lemma 1 bound %g", minProb, bound)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := Series{Name: "demo", Points: []Point{{N: 10, D: 3, Rounds: 42, Diameter: 3, OK: true}}}
	out := FormatTable(s)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "42") {
		t.Errorf("table output missing fields:\n%s", out)
	}
}

func TestApproxComparisonSmall(t *testing.T) {
	classical, quantum, err := ApproxComparison([]int{30}, 5, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !classical.Points[0].OK {
		t.Errorf("classical approx failed quality: %+v", classical.Points[0])
	}
	if !quantum.Points[0].OK {
		t.Errorf("quantum approx failed quality: %+v", quantum.Points[0])
	}
}

func TestDiameterSweep(t *testing.T) {
	s, err := DiameterSweep(40, []int{4, 8}, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points: %d", len(s.Points))
	}
	for _, p := range s.Points {
		if !p.OK {
			t.Errorf("sweep unreliable at D=%d", p.D)
		}
	}
}

// Parallel trials must fold into exactly the series a sequential sweep
// produces: results are keyed by trial index, not by completion order.
func TestSweepParallelDeterministic(t *testing.T) {
	want, wantQ, err := ExactComparison([]int{24, 48}, 4, 4, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, gotQ, err := ExactComparison([]int{24, 48}, 4, 4, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotQ, wantQ) {
		t.Errorf("parallel sweep differs from sequential:\n%v\nvs\n%v", FormatTable(got, gotQ), FormatTable(want, wantQ))
	}
	wantS, err := DiameterSweep(36, []int{4, 6}, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := DiameterSweep(36, []int{4, 6}, 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Errorf("parallel diameter sweep differs from sequential")
	}
}

// TestSuiteComparison drives the distance-parameter sweep end to end: every
// point must match its oracle (the driver sets OK), and the parallel sweep
// must reproduce the sequential one exactly.
func TestSuiteComparison(t *testing.T) {
	want, err := SuiteComparison([]int{20, 28}, 4, 6, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 {
		t.Fatalf("series: %d, want 6", len(want))
	}
	for _, s := range want {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if !p.OK {
				t.Errorf("%s: oracle mismatch at n=%d (got %d)", s.Name, p.N, p.Diameter)
			}
			if p.Rounds <= 0 {
				t.Errorf("%s: no rounds at n=%d", s.Name, p.N)
			}
		}
	}
	got, err := SuiteComparison([]int{20, 28}, 4, 6, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel suite sweep differs from sequential:\n%vvs\n%v",
			FormatTable(got...), FormatTable(want...))
	}
}
