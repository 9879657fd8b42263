package congest

import (
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/graph"
)

// This file implements the preparation phase of the paper's Figure 3
// (identical to Steps 1-5 of Algorithm 1 in [HPRW14]) and the classical
// 3/2-approximation baseline that finishes it with a pipelined multi-source
// eccentricity computation. The quantum algorithm of Theorem 4 reuses
// ApproxPrep and replaces the final phase with quantum optimization.

// ApproxPrep is the outcome of Figure 3's preparation.
type ApproxPrep struct {
	Info *PreInfo // leader, BFS(leader), d = ecc(leader)

	S        []bool   // the sampled hitting set of Step 1
	W        int      // the vertex maximizing d(w, p(w)) (Step 2)
	WInfo    *PreInfo // BFS(w) rooted at w; WInfo.D = ecc(w), a free 2-approximation lower bound
	RMembers []bool   // R: the s closest vertices to w (Step 3)
	RSize    int
	RChild   [][]int // BFS(w) children restricted to R (the R-subtree)
	TauR     []int   // DFS numbers of R members along the R-subtree tour
}

// notifyNode is a one-shot program: every marked node tells its tree parent
// that it is marked, so parents learn their marked children. The
// notification is a bare msgChild — the kind tag is the whole message.
type notifyNode struct {
	Parent int
	Marked bool

	MarkedChildren []int

	sent bool
	tx   msgChild
}

// ResetNode implements Resettable.
func (nn *notifyNode) ResetNode() {
	nn.MarkedChildren = nil
	nn.sent = false
}

func (nn *notifyNode) Send(env *Env, out *Outbox) {
	if nn.sent {
		return
	}
	nn.sent = true
	if !nn.Marked || nn.Parent < 0 {
		return
	}
	out.Put(nn.Parent, &nn.tx)
}

func (nn *notifyNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		if inbox[i].Kind == KindChild {
			nn.MarkedChildren = append(nn.MarkedChildren, inbox[i].From)
		}
	}
}

func (nn *notifyNode) Done() bool { return nn.sent }

// NextWake implements Scheduled: one shot in round 1, then nothing.
func (nn *notifyNode) NextWake(env *Env, round int) int {
	if nn.sent {
		return NeverWake
	}
	return round + 1
}

// PrepareApproxOn runs Steps 1-3 of Figure 3 on an already-built topology
// with target sample size s and the given randomness seed. It retries the
// sampling (with derived seeds) when Step 1's abort condition triggers or
// the sample is empty. The repeated counting probes of the R-selection
// binary searches (one convergecast sum plus one broadcast each, O(log n)
// of them) run on two sessions built once and re-run per probe instead of
// fresh networks.
func PrepareApproxOn(topo *Topology, s int, seed int64, opts ...Option) (*ApproxPrep, Metrics, error) {
	var total Metrics
	n := topo.N()
	if s < 1 || s > n {
		return nil, total, fmt.Errorf("congest: sample parameter s=%d out of [1,%d]", s, n)
	}
	info, m, err := PreprocessOn(topo, opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)

	prep := &ApproxPrep{Info: info}

	// Step 1: each vertex joins S with probability (log n)/s, abort (and
	// retry) when more than n(log n)^2/s vertices join. The per-attempt
	// count check reuses one sum session over BFS(leader).
	logn := math.Log(float64(n)) + 1
	prob := math.Min(1, logn/float64(s))
	limit := int(float64(n)*logn*logn/float64(s)) + 1
	sumLeader := newTreeAgg(topo, info, KindSum, 0, "sum convergecast", opts...)
	vals := make([]int, n) // reusable per-vertex input buffer for the probes
	runSum := func(a treeAgg) (int, error) {
		sum, m, err := a.run(vals)
		if err != nil {
			return 0, err
		}
		total.Add(m)
		return sum, nil
	}
	for attempt := 0; ; attempt++ {
		if attempt >= 16 {
			return nil, total, fmt.Errorf("congest: sampling failed %d times", attempt)
		}
		rng := rand.New(rand.NewSource(seed + int64(attempt)*7919))
		prep.S = make([]bool, n)
		count := 0
		for v := 0; v < n; v++ {
			vals[v] = 0
			if rng.Float64() < prob {
				prep.S[v] = true
				vals[v] = 1
				count++
			}
		}
		// The count check is a convergecast sum in the real network.
		sum, err := runSum(sumLeader)
		if err != nil {
			return nil, total, err
		}
		if sum != count {
			return nil, total, fmt.Errorf("congest: sum convergecast returned %d, want %d", sum, count)
		}
		if count >= 1 && count <= limit {
			break
		}
	}

	// Step 2: p(v) = closest member of S, then w = argmax d(v, p(v)).
	flood, m, err := runOnce(topo, func(v int) *MinFloodNode { return NewMinFloodNode(prep.S[v]) }, 4*n+16, "min flood", opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	distS := make([]int, n)
	for v, f := range flood {
		distS[v] = f.Dist
	}
	_, w, m, err := ConvergecastMaxOn(topo, info, distS, nil, opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	prep.W = w

	// Broadcast w so every node can join the BFS from it.
	bm, err := BroadcastOn(topo, info, w, opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(bm)

	// Step 3: BFS from w; the s closest vertices join R.
	wInfo, m, err := bfsTree(topo, w, "bfs from w", opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	prep.WInfo = wInfo

	// Select R: the s closest vertices to w, ties broken by id. Two
	// distributed binary searches (threshold on depth, then on id within
	// the boundary layer), each probe one convergecast sum + broadcast —
	// both on sessions built once for the whole search and re-run per probe.
	sumW := newTreeAgg(topo, wInfo, KindSum, 0, "sum convergecast", opts...)
	bcastW := NewSession(topo, func(v int) *BroadcastNode {
		return NewBroadcastNode(wInfo.Parent[v], wInfo.Children[v], 0)
	}, opts...)
	// probe counts the vertices v with in(v, x) and broadcasts x.
	probe := func(x int, in func(v, x int) bool) (int, error) {
		for v := 0; v < n; v++ {
			vals[v] = 0
			if in(v, x) {
				vals[v] = 1
			}
		}
		c, err := runSum(sumW)
		if err != nil {
			return 0, err
		}
		bcastW.Node(w).Value = x
		if err := bcastW.Run(4*n + 16); err != nil {
			return 0, fmt.Errorf("broadcast: %w", err)
		}
		total.Add(bcastW.Metrics())
		return c, nil
	}
	// least returns the smallest x in [0, hi] whose probe counts at least
	// want vertices.
	least := func(hi, want int, in func(v, x int) bool) (int, error) {
		lo := 0
		for lo < hi {
			mid := (lo + hi) / 2
			c, err := probe(mid, in)
			if err != nil {
				return 0, err
			}
			if c >= want {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo, nil
	}
	depth := wInfo.Depth
	atMostDepth := func(v, t int) bool { return depth[v] <= t }
	tStar, err := least(wInfo.D, s, atMostDepth)
	if err != nil {
		return nil, total, err
	}
	below := 0
	if tStar > 0 {
		if below, err = probe(tStar-1, atMostDepth); err != nil {
			return nil, total, err
		}
	}
	// Admit s - below vertices of the boundary layer depth == tStar, by id.
	theta, err := least(n-1, s-below, func(v, theta int) bool { return depth[v] == tStar && v <= theta })
	if err != nil {
		return nil, total, err
	}
	prep.RMembers = make([]bool, n)
	for v := 0; v < n; v++ {
		if depth[v] < tStar || (depth[v] == tStar && v <= theta) {
			prep.RMembers[v] = true
			prep.RSize++
		}
	}
	if prep.RSize != s {
		return nil, total, fmt.Errorf("congest: selected |R|=%d, want %d", prep.RSize, s)
	}

	// R members notify their BFS(w) parents, yielding the R-subtree.
	notify, m, err := runOnce(topo, func(v int) *notifyNode {
		return &notifyNode{Parent: wInfo.Parent[v], Marked: prep.RMembers[v]}
	}, 8, "R notify", opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m)
	prep.RChild = make([][]int, n)
	for v, nn := range notify {
		prep.RChild[v] = nn.MarkedChildren
	}

	// DFS-number the R-subtree (full tour of 2(|R|-1) steps from w) so the
	// final phases can pipeline by tau. R is ancestor-closed in BFS(w), so
	// the R-subtree is a tree rooted at w.
	steps := 2 * (prep.RSize - 1)
	if steps < 1 {
		steps = 1
	}
	tauR, m2, err := TokenWalkOn(topo, wInfo, prep.RChild, w, steps, opts...)
	if err != nil {
		return nil, total, err
	}
	total.Add(m2)
	prep.TauR = tauR
	for v := 0; v < n; v++ {
		if prep.RMembers[v] != (tauR[v] >= 0 || v == w) {
			return nil, total, fmt.Errorf("congest: R-subtree walk missed vertex %d", v)
		}
	}
	return prep, total, nil
}

// ClassicalApproxDiameter computes the [HPRW14] 3/2-approximation: after
// PrepareApprox, the eccentricity of every vertex of R is computed with the
// pipelined multi-source BFS and per-source maximum convergecast, and the
// largest one is returned. The estimate Dhat satisfies
// floor(2D/3) <= Dhat <= D with high probability. Rounds: Õ(s + D) with
// s = ceil(sqrt(n)) by default.
func ClassicalApproxDiameter(g *graph.Graph, s int, seed int64, opts ...Option) (ExactResult, error) {
	var res ExactResult
	topo, err := classicalTopology(g)
	if topo == nil {
		return res, err
	}
	n := topo.N()
	if s <= 0 {
		s = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if s > n {
		s = n
	}
	prep, m, err := PrepareApproxOn(topo, s, seed, opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)

	// Multi-source BFS from R, sources identified by their tau rank.
	maxRank := 0
	for v := 0; v < n; v++ {
		if prep.RMembers[v] && prep.TauR[v] > maxRank {
			maxRank = prep.TauR[v]
		}
	}
	sources := maxRank + 1
	duration := sources + 2*prep.Info.D + 8
	ssp, m, err := runOnce(topo, func(v int) *SSPNode {
		rank := -1
		if prep.RMembers[v] {
			rank = prep.TauR[v]
		}
		return NewSSPNode(rank, sources, duration)
	}, duration+4, "multi-source BFS", opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)

	// Per-source maximum convergecast on BFS(w): ecc of each R member.
	cc, m, err := runOnce(topo, func(v int) *SlotConvergecastNode {
		return NewSlotConvergecastNode(prep.WInfo, v, KindSrcMax, kindInvalid, sources, 0, -1, ssp[v].Dist)
	}, prep.WInfo.D+sources+8, "source max convergecast", opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	best := 0
	for _, e := range cc[prep.W].Vec {
		if e > best {
			best = e
		}
	}
	res.Diameter = best
	return res, nil
}

// BroadcastOn broadcasts value down the tree info describes, on an
// already-built topology.
func BroadcastOn(topo *Topology, info *PreInfo, value int, opts ...Option) (Metrics, error) {
	_, m, err := runOnce(topo, func(v int) *BroadcastNode {
		return NewBroadcastNode(info.Parent[v], info.Children[v], value)
	}, 4*topo.N()+16, "broadcast", opts...)
	return m, err
}
