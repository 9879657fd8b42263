package congest

// Composite sessions for the paper's Evaluation procedure (Figure 2): the
// quantum algorithms run one token walk plus one wave-and-convergecast per
// Evaluation, hundreds of times per optimization. WalkSession and
// EccSession are the reusable counterparts of the one-shot TokenWalkOn and
// WaveOn + ConvergecastMaxOn runs: built once per (topology, tree,
// schedule), then one Run per Evaluation. Each Eval is bit-for-bit
// identical — values, Metrics, observer traces, error strings — to those
// fresh-network runs; the session determinism tests assert that
// equivalence.

import "fmt"

// WalkSession is a reusable TokenWalkOn: the Figure 2 Step 1 walk over a
// fixed tree, re-runnable from a different start vertex per execution.
type WalkSession struct {
	s     *Session[*TokenWalkNode]
	steps int
	tau   []int
}

// NewWalkSession builds the walk session: L = steps token moves on the tree
// described by info with the given per-node child lists. The start vertex
// is an Eval argument, not fixed here.
func NewWalkSession(topo *Topology, info *PreInfo, children [][]int, steps int, opts ...Option) *WalkSession {
	return &WalkSession{
		s: NewSession(topo, func(v int) *TokenWalkNode {
			return NewTokenWalkNode(info.Parent[v], children[v], info.Leader, -1, steps)
		}, opts...),
		steps: steps,
		tau:   make([]int, topo.N()),
	}
}

// Eval runs one walk from start and returns tau' (-1 for unvisited
// vertices). The returned slice is owned by the session and only valid
// until the next Eval.
func (ws *WalkSession) Eval(start int) ([]int, Metrics, error) {
	for _, tw := range ws.s.Nodes() {
		tw.Start = start
	}
	if err := ws.s.Run(ws.steps + 4); err != nil {
		return nil, ws.s.Metrics(), fmt.Errorf("token walk: %w", err)
	}
	for v, tw := range ws.s.Nodes() {
		ws.tau[v] = tw.Tau
	}
	return ws.tau, ws.s.Metrics(), nil
}

// Close is a no-op: a session holds nothing to release. Its one caller is
// the benchmark's diameter workload (bench/workloads.go line 184). It is
// deleted together with that call, by ROADMAP item 3, which edits the
// benchmark.
func (ws *WalkSession) Close() {}

// EccSession is the Figure 2 Step 2 wave process followed by the Step 3
// max convergecast on BFS(leader), re-runnable with a different tau'
// assignment per execution: the classical core that the quantum Evaluation
// procedure quantizes.
type EccSession struct {
	wave     *Session[*WaveNode]
	cc       treeAgg
	duration int
	dv       []int
}

// NewEccSession builds the wave+convergecast pair on the tree described by
// info. waveDuration is the fixed length of the wave process; it must be
// at least 2*max(tau') + 2*ecc bounds, and callers derive it from d.
func NewEccSession(topo *Topology, info *PreInfo, waveDuration int, opts ...Option) *EccSession {
	return &EccSession{
		wave: NewSession(topo, func(v int) *WaveNode {
			return NewWaveNode(false, -1, waveDuration)
		}, opts...),
		cc:       newTreeAgg(topo, info, KindMax, 0, "convergecast", opts...),
		duration: waveDuration,
		dv:       make([]int, topo.N()),
	}
}

// Eval computes max_{u in S} ecc(u) for the set S given as tau'
// assignments (tau[v] >= 0 iff v in S).
func (es *EccSession) Eval(tau []int) (int, Metrics, error) {
	var total Metrics
	for v, wn := range es.wave.Nodes() {
		wn.InS, wn.TauPrime = tau[v] >= 0, tau[v]
	}
	if err := es.wave.Run(es.duration + 4); err != nil {
		return 0, total, fmt.Errorf("wave process: %w", err)
	}
	for v, wn := range es.wave.Nodes() {
		if wn.Violation != nil {
			return 0, total, wn.Violation
		}
		es.dv[v] = wn.DV
	}
	total.Add(es.wave.Metrics())
	ecc, m, err := es.cc.run(es.dv)
	if err != nil {
		return 0, total, err
	}
	total.Add(m)
	return ecc, total, nil
}

// Close is a no-op: a session holds nothing to release. Its only callers
// are the benchmark's diameter and eccentricity workloads
// (bench/workloads.go lines 184 and 385). It is deleted together with those
// calls, by ROADMAP item 3, which edits the benchmark.
func (es *EccSession) Close() {}
