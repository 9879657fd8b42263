package congest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// TestTopologyFromCSRMatchesGraphPath pins the two Topology constructors
// to each other: a topology built from the streamed CSR must expose the
// same adjacency views and run programs bit-identically to one built from
// the equivalent *graph.Graph.
func TestTopologyFromCSRMatchesGraphPath(t *testing.T) {
	rows, cols := 11, 17
	g := graph.Grid(rows, cols)
	want, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := graph.BuildCSRFromStream(rows*cols, graph.GridEdges(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewTopologyFromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		a, b := got.Neighbors(v), want.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree(%d) = %d, want %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("neighbors(%d) differ at %d: %d vs %d", v, i, a[i], b[i])
			}
		}
	}
	if got.HasEdge(0, 1) != want.HasEdge(0, 1) || got.HasEdge(0, 2) != want.HasEdge(0, 2) {
		t.Errorf("HasEdge disagrees between build paths")
	}

	// Run a real program on both topologies: identical outputs and Metrics.
	fingerprint := func(topo *Topology) (string, Metrics) {
		nw := NewNetworkOn(topo, func(v int) Node { return NewBFSNode(0) })
		if err := nw.Run(8*topo.N() + 16); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for v := 0; v < topo.N(); v++ {
			b := nw.Node(v).(*BFSNode)
			fmt.Fprintf(&sb, "%d/%d/%d;", b.Dist, b.Parent, b.Ecc)
		}
		return sb.String(), nw.Metrics()
	}
	wantOut, wantM := fingerprint(want)
	gotOut, gotM := fingerprint(got)
	if gotOut != wantOut {
		t.Errorf("BFS outputs differ between graph-built and CSR-built topologies")
	}
	if gotM != wantM {
		t.Errorf("BFS Metrics = %+v on CSR topology, want %+v", gotM, wantM)
	}
}

// TestTopologyFromCSRWeighted: a weighted CSR carries its weight arena and
// MaxWeight through to the topology.
func TestTopologyFromCSRWeighted(t *testing.T) {
	g := graph.WithWeights(graph.Cycle(12), 9, 3)
	c, err := g.BuildCSR()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewTopologyFromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Weighted() || got.MaxWeight() != want.MaxWeight() {
		t.Fatalf("weighted/maxW = %v/%d, want true/%d", got.Weighted(), got.MaxWeight(), want.MaxWeight())
	}
	for v := 0; v < want.N(); v++ {
		a, b := got.NeighborWeights(v), want.NeighborWeights(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("weights(%d) differ at %d: %d vs %d", v, i, a[i], b[i])
			}
		}
	}
}

// TestTopologyFromCSRValidation rejects malformed, asymmetric and
// disconnected CSRs.
func TestTopologyFromCSRValidation(t *testing.T) {
	cases := []struct {
		name string
		c    *graph.CSR
		want string
	}{
		{"nil", nil, "nil CSR"},
		{"empty-offsets", &graph.CSR{}, "malformed"},
		{"short-weights", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{1, 0}, Weights: []int32{3}}, "malformed"},
		{"long-weights", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{1, 0}, Weights: []int32{3, 3, 3}}, "malformed"},
		{"one-way-up", &graph.CSR{Offsets: []int32{0, 1, 1}, Targets: []int32{1}}, "row 0 lists 1, row 1 does not list 0"},
		{"one-way-down", &graph.CSR{Offsets: []int32{0, 0, 1}, Targets: []int32{0}}, "row 1 lists 0, row 0 does not list 1"},
		{ // row 2 lists 0 and row 0 lists 2, but row 0's 1 is unanswered
			name: "skipped",
			c:    &graph.CSR{Offsets: []int32{0, 2, 2, 3}, Targets: []int32{1, 2, 0}},
			want: "row 0 lists 1, row 1 does not list 0",
		},
		{ // 0-1 both ways, but 0-2 only from 0 and 1-2 only from 2
			name: "crossed",
			c:    &graph.CSR{Offsets: []int32{0, 2, 3, 4}, Targets: []int32{1, 2, 0, 1}},
			want: "row 2 lists 1, row 1 does not list 2",
		},
		{"weight-asymmetric", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{1, 0}, Weights: []int32{3, 4}}, "weighs"},
		{"bad-sentinel", &graph.CSR{Offsets: []int32{0, 1}, Targets: []int32{1, 0}}, "malformed"},
		{"out-of-range", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{5, 0}}, "out of range"},
		{"self-loop", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{0, 0}}, "self-loop"},
		{"unsorted-row", &graph.CSR{Offsets: []int32{0, 2, 3, 5, 6}, Targets: []int32{2, 1, 0, 0, 3, 2}}, "ascending"},
		{"bad-weight", &graph.CSR{Offsets: []int32{0, 1, 2}, Targets: []int32{1, 0}, Weights: []int32{0, 0}}, "weight"},
		{
			name: "disconnected",
			c: &graph.CSR{ // two disjoint edges: 0-1, 2-3
				Offsets: []int32{0, 1, 2, 3, 4},
				Targets: []int32{1, 0, 3, 2},
			},
			want: "not connected",
		},
	}
	for _, tc := range cases {
		_, err := NewTopologyFromCSR(tc.c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestNeighborIndex checks the branchless binary search against a linear
// scan on rows of every length 0–17, for ids below the row, on each entry,
// between entries and above the row (the extremes of int included), and
// checks Topology.neighborIndex's guard for a sender outside [0, n).
func TestNeighborIndex(t *testing.T) {
	for length := 0; length <= 17; length++ {
		row := make([]int, length)
		for i := range row {
			row[i] = 3 + 2*i // odd entries, so even ids fall between them
		}
		ids := []int{math.MinInt, -1, 0, 1, 2, 3 + 2*length, 4 + 2*length, math.MaxInt}
		for i := range row {
			ids = append(ids, row[i], row[i]+1)
		}
		for _, id := range ids {
			if got, want := neighborIndex(row, id), slices.Index(row, id); got != want {
				t.Errorf("row of %d: neighborIndex(%d) = %d, linear scan finds %d", length, id, got, want)
			}
		}
	}
	topo, err := NewTopology(graph.Complete(18))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{math.MinInt, -1, 18, 19, math.MaxInt} {
		if got := topo.neighborIndex(u, 0); got != -1 {
			t.Errorf("Topology.neighborIndex(%d, 0) = %d on an 18-vertex topology, want -1", u, got)
		}
	}
	for u := 0; u < 18; u++ {
		for v := -1; v <= 18; v++ {
			if got, want := topo.neighborIndex(u, v), slices.Index(topo.Neighbors(u), v); got != want {
				t.Errorf("Topology.neighborIndex(%d, %d) = %d, linear scan finds %d", u, v, got, want)
			}
		}
	}
}
