package congest

import (
	"slices"
	"testing"

	"qcongest/internal/graph"
)

func TestMinFloodMatchesReference(t *testing.T) {
	g := graph.RandomConnected(30, 0.08, 6)
	members := make([]bool, g.N())
	members[3], members[17], members[25] = true, true, true
	nw, err := NewNetwork(g, func(v int) Node { return NewMinFloodNode(members[v]) })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	// Reference: nearest member by (distance, id).
	mat, err := g.DistanceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		bestD, bestS := -1, -1
		for s := 0; s < g.N(); s++ {
			if !members[s] {
				continue
			}
			if bestD == -1 || mat[v][s] < bestD || (mat[v][s] == bestD && s < bestS) {
				bestD, bestS = mat[v][s], s
			}
		}
		node := nw.Node(v).(*MinFloodNode)
		if node.Dist != bestD || node.Src != bestS {
			t.Errorf("node %d: (%d,%d), want (%d,%d)", v, node.Dist, node.Src, bestD, bestS)
		}
	}
}

// runSum runs a sum-kind ConvergecastNode convergecast of values on info's tree
// and returns the sum at the leader.
func runSum(g *graph.Graph, info *PreInfo, values []int) (int, error) {
	nw, err := NewNetwork(g, func(v int) Node {
		return NewConvergecastNode(KindSum, info.Parent[v], info.Children[v], values[v], v, 0)
	})
	if err != nil {
		return 0, err
	}
	if err := nw.Run(4*g.N() + 16); err != nil {
		return 0, err
	}
	return nw.Node(info.Leader).(*ConvergecastNode).Agg, nil
}

func TestConvergecastSum(t *testing.T) {
	g := graph.CompleteBinaryTree(15)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	// Per-node values within the counting regime the message format is
	// sized for (partial sums fit in 2*BitsForID(n) bits).
	vals := make([]int, g.N())
	want := 0
	for v := range vals {
		vals[v] = v % 5
		want += vals[v]
	}
	got, err := runSum(g, info, vals)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// Values beyond a message's documented field cap cannot be smuggled into a
// run: the encoder refuses instead of silently undercharging — the failure
// mode the declared-size convention used to allow.
func TestAggregationRejectsOverCapValues(t *testing.T) {
	g := graph.CompleteBinaryTree(15)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, g.N())
	for v := range vals {
		vals[v] = v * v * v // partial sums overflow 2*BitsForID(n) bits
	}
	if _, err := runSum(g, info, vals); err == nil {
		t.Error("over-cap convergecast sum accepted")
	}
	if _, err := BroadcastOn(mustTopology(t, g), info, 1<<20); err == nil {
		t.Error("over-cap broadcast value accepted")
	}
}

func TestConvergecastMaxWitness(t *testing.T) {
	g := graph.Grid(3, 5)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int, g.N())
	vals[7] = 42
	vals[11] = 42
	maxV, wit, _, err := ConvergecastMaxOn(mustTopology(t, g), info, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if maxV != 42 || wit != 7 { // smallest witness wins ties
		t.Errorf("max,witness = %d,%d want 42,7", maxV, wit)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	g := graph.RandomConnected(20, 0.1, 2)
	info, _, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, func(v int) Node {
		return NewBroadcastNode(info.Parent[v], info.Children[v], 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4 * g.N()); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if got := nw.Node(v).(*BroadcastNode).Value; got != 42 {
			t.Errorf("node %d: value %d", v, got)
		}
	}
	if nw.Metrics().Rounds > info.D+2 {
		t.Errorf("broadcast took %d rounds for height %d", nw.Metrics().Rounds, info.D)
	}
}

func TestSSPMatchesReference(t *testing.T) {
	g := graph.RandomConnected(28, 0.09, 11)
	mat, err := g.DistanceMatrix()
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{2, 9, 20} // ranks 0,1,2
	rankOf := map[int]int{2: 0, 9: 1, 20: 2}
	diam, _ := g.Diameter()
	duration := len(sources) + 2*diam + 8
	nw, err := NewNetwork(g, func(v int) Node {
		r, ok := rankOf[v]
		if !ok {
			r = -1
		}
		return NewSSPNode(r, len(sources), duration)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(duration + 4); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		got := nw.Node(v).(*SSPNode).Dist
		for src, rank := range rankOf {
			if got[rank] != mat[v][src] {
				t.Errorf("node %d source %d: dist %d, want %d", v, src, got[rank], mat[v][src])
			}
		}
	}
}

func TestPrepareApproxInvariants(t *testing.T) {
	g := graph.RandomConnected(40, 0.07, 13)
	s := 8
	prep, _, err := PrepareApproxOn(mustTopology(t, g), s, 99)
	if err != nil {
		t.Fatal(err)
	}
	if prep.RSize != s {
		t.Fatalf("|R| = %d, want %d", prep.RSize, s)
	}
	if !prep.RMembers[prep.W] {
		t.Error("w must belong to R")
	}
	// WInfo is BFS(w) as the BFSNode rule builds it: hop distances from w,
	// each parent the smallest-id neighbor one level up, children the
	// ascending inverse of parent, and D = ecc(w).
	wi := prep.WInfo
	dist, _ := g.BFS(prep.W)
	if wi.Leader != prep.W {
		t.Errorf("WInfo.Leader = %d, want w = %d", wi.Leader, prep.W)
	}
	if !slices.Equal(wi.Depth, dist) {
		t.Errorf("WInfo.Depth = %v, want the hop distances %v", wi.Depth, dist)
	}
	if ecc := slices.Max(dist); wi.D != ecc {
		t.Errorf("WInfo.D = %d, want ecc(w) = %d", wi.D, ecc)
	}
	children := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		parent := -1
		for _, u := range g.Neighbors(v) {
			if dist[u] == dist[v]-1 && (parent < 0 || u < parent) {
				parent = u
			}
		}
		if wi.Parent[v] != parent {
			t.Errorf("WInfo.Parent[%d] = %d, want %d", v, wi.Parent[v], parent)
		}
		if parent >= 0 {
			children[parent] = append(children[parent], v)
		}
	}
	for v := range children {
		if !slices.Equal(wi.Children[v], children[v]) {
			t.Errorf("WInfo.Children[%d] = %v, want %v", v, wi.Children[v], children[v])
		}
	}
	// R must be exactly the s closest vertices to w by (depth, id).
	type key struct{ d, id int }
	var all []key
	for v := 0; v < g.N(); v++ {
		all = append(all, key{prep.WInfo.Depth[v], v})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].d < all[i].d || (all[j].d == all[i].d && all[j].id < all[i].id) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	want := map[int]bool{}
	for i := 0; i < s; i++ {
		want[all[i].id] = true
	}
	for v := 0; v < g.N(); v++ {
		if prep.RMembers[v] != want[v] {
			t.Errorf("vertex %d: in R = %v, want %v", v, prep.RMembers[v], want[v])
		}
	}
	// R is ancestor-closed: the parent of any non-w member is a member.
	for v := 0; v < g.N(); v++ {
		if prep.RMembers[v] && v != prep.W {
			if p := prep.WInfo.Parent[v]; !prep.RMembers[p] {
				t.Errorf("vertex %d in R but parent %d is not", v, p)
			}
		}
	}
	// tau values are unique and each R member except possibly w has one.
	seen := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		if prep.TauR[v] >= 0 {
			if seen[prep.TauR[v]] {
				t.Errorf("duplicate tau %d", prep.TauR[v])
			}
			seen[prep.TauR[v]] = true
			if !prep.RMembers[v] {
				t.Errorf("non-member %d has tau", v)
			}
		}
	}
}

func TestClassicalApproxQuality(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(30),
		graph.Cycle(24),
		graph.Grid(5, 6),
		graph.RandomConnected(40, 0.06, 21),
		graph.RandomConnected(40, 0.12, 22),
		graph.Barbell(6, 8),
		graph.SmallWorld(36, 2, 0.25, 23),
	}
	for gi, g := range graphs {
		want, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ClassicalApproxDiameter(g, 0, int64(gi)+1)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		got := res.Diameter
		if got > want {
			t.Errorf("graph %d: estimate %d exceeds true diameter %d", gi, got, want)
		}
		// 3/2-approximation: D <= ceil(3*(Dhat+1)/2). The +1 absorbs the
		// floor in the [HPRW14] guarantee Dhat >= floor(2D/3).
		if 2*want > 3*(got+1) {
			t.Errorf("graph %d: estimate %d too small for diameter %d", gi, got, want)
		}
	}
}

func TestClassicalApproxBadParams(t *testing.T) {
	g := graph.Path(10)
	topo := mustTopology(t, g)
	if _, _, err := PrepareApproxOn(topo, 0, 1); err == nil {
		t.Error("s=0 accepted")
	}
	if _, _, err := PrepareApproxOn(topo, 11, 1); err == nil {
		t.Error("s>n accepted")
	}
}

// ClassicalApproxDiameter's complete result is pinned on three small
// graphs: the estimate and every Metrics field, MaxStateBits included (the
// per-source max convergecast reports no state, so BFS construction sets
// the maximum).
func TestClassicalApproxDiameterPinned(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		s    int
		seed int64
		want ExactResult
	}{
		{"random60", graph.RandomConnected(60, 0.08, 3), 0, 1, ExactResult{Diameter: 5, Metrics: Metrics{
			Rounds: 226, Messages: 7953, Bits: 123112, MaxEdgeBits: 19, MaxStateBits: 1037, MaxInboxSize: 26, DroppedRounds: 44}}},
		{"grid7x7", graph.Grid(7, 7), 0, 2, ExactResult{Diameter: 12, Metrics: Metrics{
			Rounds: 440, Messages: 4794, Bits: 70290, MaxEdgeBits: 19, MaxStateBits: 387, MaxInboxSize: 6, DroppedRounds: 56}}},
		{"caterpillar", graph.Caterpillar(12, 2), 5, 3, ExactResult{Diameter: 11, Metrics: Metrics{
			Rounds: 414, Messages: 2345, Bits: 33697, MaxEdgeBits: 19, MaxStateBits: 452, MaxInboxSize: 8, DroppedRounds: 55}}},
	}
	for _, c := range cases {
		got, err := ClassicalApproxDiameter(c.g, c.s, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}
