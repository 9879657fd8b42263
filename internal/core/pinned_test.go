package core

// Absolute pins for the workloads the golden matrix leaves out. The
// configuration-identity tests only compare configurations with each
// other, so a change that shifted every configuration the same way would
// pass them; these values were printed by the implementation before the
// entry points moved onto one pipeline, and every field must still match.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

// rowsDigest is an FNV-1a digest of every streamed APSP row, in emission
// order.
type rowsDigest struct{ h uint64 }

func (d *rowsDigest) emit(source int, row []int) error {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x|%d:%v\n", d.h, source, row)
	d.h = h.Sum64()
	return nil
}

func TestGoldenWorkloadsPinned(t *testing.T) {
	er16 := graph.RandomConnected(16, 0.3, 7)
	tree13 := graph.RandomTree(13, 3)
	erw14 := graph.WithWeights(graph.RandomConnected(14, 0.2, 9), 6, 90)
	erw80 := graph.WithWeights(graph.RandomConnected(80, 0.06, 3), 9, 11)

	t.Run("workloads", func(t *testing.T) {
		cases := []struct {
			name   string
			g      *graph.Graph
			detect TriangleResult
			count  TriangleResult
			cut    CutResult
		}{
			{"er16", er16,
				TriangleResult{Found: true, Vertex: 13, Rounds: 40, InitRounds: 27, SetupRounds: 4, EvalRounds: 4, LeaderQubits: 30, NodeQubits: 25},
				TriangleResult{Found: true, Vertex: 13, Vertices: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, Count: 16, Rounds: 677, InitRounds: 27, SetupRounds: 4, EvalRounds: 4, Iterations: 12, LeaderQubits: 30, NodeQubits: 25},
				CutResult{Weight: 4, Root: 4, Rounds: 22865, InitRounds: 17, SetupRounds: 4, EvalRounds: 8, Iterations: 458, LeaderQubits: 40, NodeQubits: 20}},
			{"tree13", tree13,
				TriangleResult{Rounds: 8063, InitRounds: 33, SetupRounds: 7, EvalRounds: 7, Iterations: 155, LeaderQubits: 24, NodeQubits: 20},
				TriangleResult{Rounds: 8063, InitRounds: 33, SetupRounds: 7, EvalRounds: 7, Iterations: 155, LeaderQubits: 24, NodeQubits: 20},
				CutResult{Weight: 1, Root: 8, Rounds: 38909, InitRounds: 29, SetupRounds: 7, EvalRounds: 14, Iterations: 452, LeaderQubits: 40, NodeQubits: 20}},
			{"erw14", erw14,
				TriangleResult{Found: true, Vertex: 11, Rounds: 42, InitRounds: 26, SetupRounds: 5, EvalRounds: 5, LeaderQubits: 24, NodeQubits: 20},
				TriangleResult{Found: true, Vertex: 11, Vertices: []int{1, 2, 4, 6, 9, 11, 13}, Count: 7, Rounds: 6682, InitRounds: 26, SetupRounds: 5, EvalRounds: 5, Iterations: 176, LeaderQubits: 24, NodeQubits: 20},
				CutResult{Weight: 4, Root: 7, Rounds: 28049, InitRounds: 21, SetupRounds: 5, EvalRounds: 10, Iterations: 454, LeaderQubits: 40, NodeQubits: 20}},
		}
		for _, c := range cases {
			opts := Options{Seed: 21, Delta: workloadDelta}
			if got, err := TriangleDetect(c.g, opts); err != nil || !reflect.DeepEqual(got, c.detect) {
				t.Errorf("%s TriangleDetect = %+v, %v\nwant %+v", c.name, got, err, c.detect)
			}
			if got, err := TriangleCount(c.g, opts); err != nil || !reflect.DeepEqual(got, c.count) {
				t.Errorf("%s TriangleCount = %+v, %v\nwant %+v", c.name, got, err, c.count)
			}
			if got, err := MinTreeCut(c.g, opts); err != nil || got != c.cut {
				t.Errorf("%s MinTreeCut = %+v, %v\nwant %+v", c.name, got, err, c.cut)
			}
		}
	})

	t.Run("sublinear", func(t *testing.T) {
		ecc14 := []int{17, 14, 12, 15, 10, 12, 15, 16, 14, 11, 17, 11, 12, 12}
		ecc80 := []int{13, 18, 19, 14, 15, 17, 18, 14, 13, 15, 16, 18, 13, 14, 18, 13, 14, 16, 15, 15,
			14, 13, 21, 14, 18, 15, 17, 15, 17, 20, 16, 17, 16, 15, 16, 14, 13, 13, 19, 17,
			14, 14, 15, 15, 15, 15, 14, 14, 14, 14, 16, 16, 15, 16, 19, 15, 13, 14, 13, 15,
			15, 16, 15, 13, 20, 14, 15, 15, 15, 16, 21, 15, 15, 16, 14, 16, 15, 17, 15, 14}
		cases := []struct {
			name      string
			g         *graph.Graph
			apsp      ApspResult
			rows      uint64
			diam, rad Result
			ecc       EccResult
		}{
			{"erw14", erw14,
				ApspResult{Sources: 14, Ecc: ecc14, Rounds: 1053, InitRounds: 437, EvalRounds: 44}, 0xb349111e2e3aacb4,
				Result{Diameter: 17, Rounds: 25723, InitRounds: 437, SetupRounds: 5, EvalRounds: 44, Iterations: 101, LeaderQubits: 40, NodeQubits: 20},
				Result{Diameter: 10, Rounds: 25535, InitRounds: 437, SetupRounds: 5, EvalRounds: 44, Iterations: 100, LeaderQubits: 40, NodeQubits: 20},
				EccResult{Ecc: ecc14, Rounds: 1053, InitRounds: 437, EvalRounds: 44}},
			{"erw80", erw80,
				ApspResult{Sources: 80, Ecc: ecc80, Rounds: 10707, InitRounds: 2147, EvalRounds: 107}, 0xc28aa784f5c8f84b,
				Result{Diameter: 21, Rounds: 175947, InitRounds: 2147, SetupRounds: 5, EvalRounds: 107, Iterations: 333, LeaderQubits: 91, NodeQubits: 35},
				Result{Diameter: 13, Rounds: 173087, InitRounds: 2147, SetupRounds: 5, EvalRounds: 107, Iterations: 328, LeaderQubits: 91, NodeQubits: 35},
				EccResult{Ecc: ecc80, Rounds: 10707, InitRounds: 2147, EvalRounds: 107}},
		}
		for _, c := range cases {
			opts := Options{Seed: 5, Sublinear: true}
			var d rowsDigest
			if got, err := APSP(c.g, opts, d.emit); err != nil || !reflect.DeepEqual(got, c.apsp) || d.h != c.rows {
				t.Errorf("%s APSP = %+v, %v, rows %#x\nwant %+v, rows %#x", c.name, got, err, d.h, c.apsp, c.rows)
			}
			if got, err := WeightedDiameter(c.g, opts); err != nil || got != c.diam {
				t.Errorf("%s WeightedDiameter = %+v, %v\nwant %+v", c.name, got, err, c.diam)
			}
			if got, err := WeightedRadius(c.g, opts); err != nil || got != c.rad {
				t.Errorf("%s WeightedRadius = %+v, %v\nwant %+v", c.name, got, err, c.rad)
			}
			if got, err := Eccentricities(c.g, opts); err != nil || !reflect.DeepEqual(got, c.ecc) {
				t.Errorf("%s Eccentricities = %+v, %v\nwant %+v", c.name, got, err, c.ecc)
			}
		}
	})
}
