package core

import (
	"errors"
	"reflect"
	"testing"

	"qcongest/internal/graph"
)

// fuzzGraph decodes a graph of at most 8 vertices: each (u, v, w) byte
// triple adds edge {u mod n, v mod n}, weighted 1 + w mod 9 when weighted
// is set; self-loops and repeated edges are skipped.
func fuzzGraph(nRaw uint8, weighted bool, edges []byte) *graph.Graph {
	n := int(nRaw % 9)
	g := graph.New(n)
	for i := 0; n > 0 && i+2 < len(edges); i += 3 {
		u, v := int(edges[i])%n, int(edges[i+1])%n
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if weighted {
			g.MustAddWeightedEdge(u, v, 1+int(edges[i+2])%9)
		} else {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// FuzzEntryPoints runs every entry point of the package on tiny random
// graphs. A disconnected graph must be an error everywhere; on a connected
// one each entry point must return what graph's sequential oracles (and the
// brute-force triangle and tree-cut helpers) compute — the quantum ones at
// failure probability workloadDelta, the approximation within its
// floor(2D/3) <= Dhat <= D guarantee.
func FuzzEntryPoints(f *testing.F) {
	f.Add(uint8(0), false, false, []byte{})
	f.Add(uint8(1), false, false, []byte{})
	f.Add(uint8(2), true, false, []byte{0, 1, 6})
	f.Add(uint8(2), false, false, []byte{}) // the disconnected pair
	f.Add(uint8(5), false, false, []byte{}) // edgeless
	f.Add(uint8(6), false, false, []byte{0, 1, 0, 1, 2, 0, 2, 0, 0, 3, 4, 0, 4, 5, 0, 5, 3, 0, 2, 3, 0})
	f.Add(uint8(8), true, true, []byte{0, 1, 3, 1, 2, 8, 2, 3, 1, 3, 4, 5, 4, 5, 2, 5, 6, 7, 6, 7, 4, 7, 0, 6, 0, 4, 2})
	f.Fuzz(func(t *testing.T, nRaw uint8, weighted, sublinear bool, edges []byte) {
		g := fuzzGraph(nRaw, weighted, edges)
		n := g.N()
		opts := Options{Seed: 1, Delta: workloadDelta, Sublinear: sublinear}
		hopD, err := g.Diameter()
		if err != nil {
			for name, run := range map[string]func() error{
				"ExactDiameterSimple": func() error { _, err := ExactDiameterSimple(g, opts); return err },
				"ExactDiameter":       func() error { _, err := ExactDiameter(g, opts); return err },
				"ApproxDiameter":      func() error { _, err := ApproxDiameter(g, opts); return err },
				"Radius":              func() error { _, err := Radius(g, opts); return err },
				"WeightedDiameter":    func() error { _, err := WeightedDiameter(g, opts); return err },
				"WeightedRadius":      func() error { _, err := WeightedRadius(g, opts); return err },
				"Eccentricities":      func() error { _, err := Eccentricities(g, opts); return err },
				"APSP":                func() error { _, err := APSP(g, opts, nil); return err },
				"TriangleDetect":      func() error { _, err := TriangleDetect(g, opts); return err },
				"TriangleCount":       func() error { _, err := TriangleCount(g, opts); return err },
				"MinTreeCut":          func() error { _, err := MinTreeCut(g, opts); return err },
			} {
				if err := run(); err == nil {
					t.Errorf("%s: no error on a disconnected graph", name)
				}
			}
			return
		}
		wEcc, err := g.WeightedAllEccentricities()
		if err != nil {
			t.Fatal(err)
		}
		wD, wR := extremum(wEcc, false), extremum(wEcc, true)

		check := func(name string, got Result, err error, want int) {
			t.Helper()
			if err != nil || got.Diameter != want {
				t.Errorf("%s = %d, %v; want %d", name, got.Diameter, err, want)
			}
		}
		r, err := ExactDiameterSimple(g, opts)
		check("ExactDiameterSimple", r, err, hopD)
		r, err = ExactDiameter(g, opts)
		check("ExactDiameter", r, err, hopD)
		r, err = Radius(g, opts)
		check("Radius", r, err, wR)
		r, err = WeightedDiameter(g, opts)
		check("WeightedDiameter", r, err, wD)
		r, err = WeightedRadius(g, opts)
		check("WeightedRadius", r, err, wR)
		if r, err := ApproxDiameter(g, opts); err != nil || r.Diameter < 2*hopD/3 || r.Diameter > hopD {
			t.Errorf("ApproxDiameter = %d, %v; want within [%d, %d]", r.Diameter, err, 2*hopD/3, hopD)
		}
		if e, err := Eccentricities(g, opts); err != nil || !reflect.DeepEqual(e.Ecc, wEcc) {
			t.Errorf("Eccentricities = %v, %v; want %v", e.Ecc, err, wEcc)
		}

		dist, err := g.FloydWarshall()
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]int
		res, err := APSP(g, opts, func(_ int, row []int) error {
			rows = append(rows, append([]int(nil), row...))
			return nil
		})
		if err != nil || len(rows) != n || (n > 0 && !reflect.DeepEqual(rows, dist)) || !reflect.DeepEqual(res.Ecc, wEcc) {
			t.Errorf("APSP = rows %v, ecc %v, %v; want %v, %v", rows, res.Ecc, err, dist, wEcc)
		}

		var flagged []int
		for v, on := range bruteTriangleFlags(g) {
			if on {
				flagged = append(flagged, v)
			}
		}
		if det, err := TriangleDetect(g, opts); err != nil || det.Found != (len(flagged) > 0) ||
			det.Found && !bruteTriangleFlags(g)[det.Vertex] {
			t.Errorf("TriangleDetect = %+v, %v; triangle vertices %v", det, err, flagged)
		}
		if cnt, err := TriangleCount(g, opts); err != nil || cnt.Count != len(flagged) || !reflect.DeepEqual(cnt.Vertices, flagged) {
			t.Errorf("TriangleCount = %+v, %v; triangle vertices %v", cnt, err, flagged)
		}

		cut, err := MinTreeCut(g, opts)
		if n < 2 {
			if !errors.Is(err, errNoTreeCut) {
				t.Errorf("MinTreeCut on %d vertices: %v, want errNoTreeCut", n, err)
			}
			return
		}
		leader, parent := bruteTree(g)
		want := -1
		for root := 0; root < n; root++ {
			if w := bruteCutWeight(g, parent, root); root != leader && (want < 0 || w < want) {
				want = w
			}
		}
		if err != nil || cut.Weight != want || cut.Root == leader || bruteCutWeight(g, parent, cut.Root) != want {
			t.Errorf("MinTreeCut = %+v, %v; want weight %d", cut, err, want)
		}
	})
}
