package congest

// The Figure 2 Evaluation sessions: the quantum algorithms run one token
// walk plus one wave-and-convergecast per Evaluation, hundreds of times per
// optimization. WalkSession and EccSession are built once per (topology,
// tree, schedule), then run once per Evaluation; the one-shot TokenWalkOn,
// WaveOn and ConvergecastMaxOn are single runs of the same runners. Every
// run is bit-for-bit identical — values, Metrics, observer traces, error
// strings — to a run of freshly constructed programs; the session
// determinism tests assert that equivalence against RunReference.

// WalkSession is the Figure 2 Step 1 walk over a fixed tree, re-runnable
// from a different start vertex per execution. Eval returns the Metrics of
// its one run, the failing run included.
type WalkSession struct {
	p   phase[*TokenWalkNode]
	tau []int
}

// NewWalkSession builds the walk session: L = steps token moves on the tree
// described by info with the given per-node child lists. The start vertex
// is an Eval argument, not fixed here.
func NewWalkSession(topo *Topology, info *PreInfo, children [][]int, steps int, opts ...Option) *WalkSession {
	return &WalkSession{
		p: newPhase(topo, func(v int) *TokenWalkNode {
			return NewTokenWalkNode(info.Parent[v], children[v], info.Leader, -1, steps)
		}, steps+4, "token walk", opts...),
		tau: make([]int, topo.N()),
	}
}

// Eval runs one walk from start and returns tau' (-1 for unvisited
// vertices) with the walk's Metrics. The returned slice is owned by the
// session and only valid until the next Eval.
func (ws *WalkSession) Eval(start int) ([]int, Metrics, error) {
	for _, tw := range ws.p.Nodes() {
		tw.Start = start
	}
	m, err := ws.p.exec()
	if err != nil {
		return nil, m, err
	}
	for v, tw := range ws.p.Nodes() {
		ws.tau[v] = tw.Tau
	}
	return ws.tau, m, nil
}

// Close is a no-op: a session holds nothing to release. Its one caller is
// the benchmark's diameter workload (bench/workloads.go line 184). It is
// deleted together with that call, by ROADMAP item 3, which edits the
// benchmark.
func (ws *WalkSession) Close() {}

// EccSession is the Figure 2 Step 2 wave process followed by the Step 3
// max convergecast on BFS(leader), re-runnable with a different tau'
// assignment per execution: the classical core that the quantum Evaluation
// procedure quantizes. Eval returns the Metrics of every run it executed,
// the failing run included.
type EccSession struct {
	wave waveProcess
	cc   treeAgg
}

// NewEccSession builds the wave+convergecast pair on the tree described by
// info. waveDuration is the fixed length of the wave process; it must be
// at least 2*max(tau') + 2*ecc bounds, and callers derive it from d.
func NewEccSession(topo *Topology, info *PreInfo, waveDuration int, opts ...Option) *EccSession {
	return &EccSession{
		wave: newWaveProcess(topo, waveDuration, opts...),
		cc:   newTreeAgg(topo, info, KindMax, 0, "convergecast", opts...),
	}
}

// Eval computes max_{u in S} ecc(u) for the set S given as tau'
// assignments (tau[v] >= 0 iff v in S).
func (es *EccSession) Eval(tau []int) (int, Metrics, error) {
	dv, total, err := es.wave.run(tau)
	if err != nil {
		return 0, total, err
	}
	ecc, m, err := es.cc.run(dv)
	total.Add(m)
	return ecc, total, err
}

// Close is a no-op: a session holds nothing to release. Its only callers
// are the benchmark's diameter and eccentricity workloads
// (bench/workloads.go lines 184 and 385). It is deleted together with those
// calls, by ROADMAP item 3, which edits the benchmark.
func (es *EccSession) Close() {}
