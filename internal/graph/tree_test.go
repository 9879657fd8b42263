package graph

import (
	"testing"
	"testing/quick"
)

func TestBFSTreePath(t *testing.T) {
	g := Path(5)
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 4 {
		t.Errorf("height = %d, want 4", tree.Height())
	}
	for v := 1; v < 5; v++ {
		if tree.Parent[v] != v-1 {
			t.Errorf("parent[%d] = %d, want %d", v, tree.Parent[v], v-1)
		}
		if tree.Depth[v] != v {
			t.Errorf("depth[%d] = %d, want %d", v, tree.Depth[v], v)
		}
	}
}

func TestBFSTreeDisconnected(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	if _, err := NewBFSTree(g, 0); err == nil {
		t.Error("expected error on disconnected graph")
	}
}

func TestEulerTourStar(t *testing.T) {
	g := Star(4) // center 0, leaves 1..3
	tree, err := NewBFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tour := tree.EulerTour()
	want := []int{0, 1, 0, 2, 0, 3, 0}
	if len(tour) != len(want) {
		t.Fatalf("tour = %v, want %v", tour, want)
	}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("tour = %v, want %v", tour, want)
		}
	}
}

// Property: the Euler tour of a BFS tree on a random connected graph has
// exactly 2(n-1)+1 entries, starts and ends at the root, and every
// consecutive pair is a tree edge.
func TestEulerTourProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomConnected(18, 0.07, seed)
		tree, err := NewBFSTree(g, 0)
		if err != nil {
			return false
		}
		tour := tree.EulerTour()
		if len(tour) != 2*(g.N()-1)+1 {
			return false
		}
		if tour[0] != 0 || tour[len(tour)-1] != 0 {
			return false
		}
		for i := 1; i < len(tour); i++ {
			u, v := tour[i-1], tour[i]
			if tree.Parent[u] != v && tree.Parent[v] != u {
				return false
			}
		}
		// Every vertex appears.
		seen := make(map[int]bool)
		for _, v := range tour {
			seen[v] = true
		}
		return len(seen) == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDFSNumberingPath(t *testing.T) {
	g := Path(4)
	tree, _ := NewBFSTree(g, 0)
	tau := tree.DFSNumbering()
	for v := 0; v < 4; v++ {
		if tau[v] != v {
			t.Errorf("tau[%d] = %d, want %d", v, tau[v], v)
		}
	}
}

// Property (paper, proof of Lemma 1): on any segment of the Euler tour with
// md top-down moves and mu bottom-up moves, |md - mu| <= depth of the tree.
func TestTourSegmentBalance(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomConnected(16, 0.1, seed)
		tree, err := NewBFSTree(g, 0)
		if err != nil {
			return false
		}
		tour := tree.EulerTour()
		depth := tree.Height()
		// Check all segments starting at 0 (prefix balance equals current
		// depth, which is bounded by tree height).
		bal := 0
		for i := 1; i < len(tour); i++ {
			if tree.Parent[tour[i]] == tour[i-1] {
				bal++ // top-down
			} else {
				bal--
			}
			if bal < 0 || bal > depth {
				return false
			}
		}
		return bal == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSetSWindow(t *testing.T) {
	g := Path(8)
	tree, _ := NewBFSTree(g, 0)
	// tau[v] = v on a path rooted at 0. S(u, d) = vertices with tau in
	// [tau(u), tau(u)+2d] mod 14.
	s := tree.SetS(2, 1) // window [2, 4]
	want := map[int]bool{2: true, 3: true, 4: true}
	if len(s) != len(want) {
		t.Fatalf("S = %v, want %v", s, want)
	}
	for _, v := range s {
		if !want[v] {
			t.Fatalf("S = %v, want %v", s, want)
		}
	}
}

func TestSetSWraps(t *testing.T) {
	g := Path(6)
	tree, _ := NewBFSTree(g, 0)
	// Tour length 10; window from tau(5)=5 of width 2d=6 covers steps 5..11,
	// wrapping to steps 0 and 1: first-visits are 5 plus re-walk hitting
	// vertices 0 and 1 after the wrap.
	s := tree.SetS(5, 3)
	want := map[int]bool{5: true, 0: true, 1: true}
	if len(s) != len(want) {
		t.Fatalf("S = %v, want %v", s, want)
	}
	for _, v := range s {
		if !want[v] {
			t.Fatalf("S = %v, want %v", s, want)
		}
	}
}

// Property (Lemma 1): for every vertex v, the number of u with v in S(u, d)
// is at least d/2 (so a uniform u hits v with probability >= d/2n), for
// d = ecc(root) >= 1... the paper proves >= ceil(d/2) starts per vertex.
func TestLemma1CoverageOnTrees(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomTree(14, seed)
		tree, err := NewBFSTree(g, 0)
		if err != nil {
			return false
		}
		d := tree.Height()
		if d < 1 {
			return true
		}
		n := g.N()
		count := make([]int, n)
		for u := 0; u < n; u++ {
			for _, v := range tree.SetS(u, d) {
				count[v]++
			}
		}
		for _, c := range count {
			if c < (d+1)/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSetSFullWindowCoversAll(t *testing.T) {
	g := RandomConnected(12, 0.2, 5)
	tree, err := NewBFSTree(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := tree.SetS(3, g.N()) // 2d >= tour length: everything
	if len(s) != g.N() {
		t.Errorf("full window |S| = %d, want %d", len(s), g.N())
	}
}

// Height returns the depth of the deepest vertex, i.e. ecc(root).
func (t *BFSTree) Height() int {
	h := 0
	for _, d := range t.Depth {
		if d > h {
			h = d
		}
	}
	return h
}
