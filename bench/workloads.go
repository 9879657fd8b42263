package main

import (
	"errors"
	"fmt"
	"slices"

	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/graph"
	"qcongest/internal/query"
)

// sizes are the workloads' input sizes. quickSizes keeps an in-process run
// of every workload under a few seconds (the package tests use it).
type sizes struct{ rr, path, er, side int }

var (
	fullSizes  = sizes{rr: 256, path: 512, er: 256, side: 512}
	quickSizes = sizes{rr: 64, path: 128, er: 96, side: 64}
)

// workload is one set of inputs and the user-level call the benchmark
// repeats on them, closed loop: one client, the next call starts when the
// previous one returns.
type workload struct {
	name string
	// setup_s is the median over setupRounds timed rounds, each building
	// setupBatch inputs and divided by setupBatch, host-adjusted by a
	// reference search before the round. Every round of every run builds
	// the same inputs, from seeds that do not depend on -seed:
	// random-regular and connected random graphs come from rejection
	// sampling, whose cost varies several-fold with the seed, so only
	// fixed inputs make setup_s comparable across runs. The batch makes a
	// round last tens of milliseconds, long enough that timer and
	// page-fault noise average out.
	setupBatch, setupRounds int
	// panel is the number of inputs, each built from its own seed derived
	// from -seed, that call i cycles through (input i mod panel). Where
	// the work of a call depends on the input (the leader's eccentricity
	// sets the rounds of every Figure-2 Evaluation), one input per run
	// would make runs of different seeds differ in work; a panel gives
	// every run about the same mix.
	panel int
	// setup builds the inputs from a seed.
	setup func(sz sizes, seed int64, tr *tracer) (instance, error)
}

// instance is a workload's built input.
type instance interface {
	// prepare computes the sequential oracle; it runs once, untimed.
	prepare() error
	// call runs user-level call i: the library entry point when tr is nil,
	// and otherwise the same computation recomposed from the layers'
	// exported functions with a span around each. Both paths must return
	// the same outcome key.
	call(i int, tr *tracer) (outcome, error)
	// check compares an outcome with the oracle.
	check(o outcome) error
}

type outcome struct {
	rounds int // charged CONGEST rounds of the call
	key    any // the call's result, compared bit for bit across both paths
	out    any // anything else check needs
}

// The workloads, and why each is here, are described in README.md.
var workloads = []workload{
	{name: "diameter-rr256", setupBatch: 16, setupRounds: 31, panel: 16, setup: func(sz sizes, seed int64, tr *tracer) (instance, error) {
		g, err := buildRR(sz.rr, seed, tr)
		return &diameterInst{g: g, seed: seed}, err
	}},
	{name: "classical-rr256", setupBatch: 16, setupRounds: 31, panel: 16, setup: func(sz sizes, seed int64, tr *tracer) (instance, error) {
		g, err := buildRR(sz.rr, seed, tr)
		return &classicalInst{g: g}, err
	}},
	{name: "ecc-path512", setupBatch: 1024, setupRounds: 31, panel: 1, setup: func(sz sizes, _ int64, tr *tracer) (instance, error) {
		sp := tr.begin("graph.build")
		g := graph.Path(sz.path)
		tr.end(sp)
		return &eccInst{g: g}, nil
	}},
	{name: "apsp-er256", setupBatch: 16, setupRounds: 31, panel: 16, setup: func(sz sizes, seed int64, tr *tracer) (instance, error) {
		sp := tr.begin("graph.build")
		g := graph.WithWeights(graph.RandomConnected(sz.er, 8/float64(sz.er), seed), 9, derive(seed, streamWeights, 0))
		tr.end(sp)
		return &apspInst{g: g, seed: seed}, nil
	}},
	{name: "flood-grid512", setupBatch: 2, setupRounds: 21, panel: 1, setup: setupFlood},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seed streams: every graph, weight and query seed derives from -seed.
const (
	streamGraph = iota + 1
	streamWeights
	streamQuery
)

// panelSeed stands in for -seed when deriving the timed setup rounds' seeds.
const panelSeed = 0

// derive mixes a run seed with a stream tag and an index (splitmix64) into
// a non-negative seed.
func derive(seed int64, stream, i uint64) int64 {
	x := uint64(seed) ^ stream<<56 ^ i*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

func buildRR(n int, seed int64, tr *tracer) (*graph.Graph, error) {
	sp := tr.begin("graph.build")
	g, err := graph.RandomRegular(n, 4, seed)
	tr.end(sp)
	return g, err
}

func identity(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = i
	}
	return d
}

// --- diameter-rr256: quantum ExactDiameter (Theorem 1). ---

type diameterInst struct {
	g    *graph.Graph
	seed int64
	want int
}

func (d *diameterInst) prepare() (err error) {
	d.want, err = d.g.Diameter()
	return err
}

func (d *diameterInst) check(o outcome) error {
	if got := o.key.(core.Result).Diameter; got != d.want {
		return fmt.Errorf("quantum diameter %d, oracle %d", got, d.want)
	}
	return nil
}

func (d *diameterInst) call(i int, tr *tracer) (outcome, error) {
	opts := core.Options{Seed: derive(d.seed, streamQuery, uint64(i))}
	var r core.Result
	var err error
	if tr == nil {
		r, err = core.ExactDiameter(d.g, opts)
	} else {
		r, err = tracedExactDiameter(d.g, opts.Seed, tr)
	}
	return outcome{rounds: r.Rounds, key: r}, err
}

// tracedExactDiameter is core.ExactDiameter for n > 2 with library
// defaults, recomposed from NewTopology, PreprocessOn, the Figure 2
// sessions (walk of 2d steps, wave of 6d+2 rounds) and query.Maximum with
// eps = min(1, d/2n).
func tracedExactDiameter(g *graph.Graph, seed int64, tr *tracer) (core.Result, error) {
	topo, info, pre, err := tracedPreprocess(g, tr)
	if err != nil {
		return core.Result{}, err
	}
	n, d := g.N(), info.D
	distinct := 0
	o := &tracedOracle{domain: identity(n), init: pre.Rounds, setup: d + 1, newCtx: func() query.Context {
		walk := congest.NewWalkSession(topo, info, info.Children, 2*d)
		ecc := congest.NewEccSession(topo, info, 6*d+2)
		return &tracedContext{close: func() { walk.Close(); ecc.Close() }, eval: func(u0 int) (int, int, error) {
			distinct++
			ev := tr.begin("congest.eval")
			defer tr.end(ev)
			sp := tr.begin("congest.walk")
			tau, mWalk, err := walk.Eval(u0)
			tr.endEngine(sp, mWalk)
			if err != nil {
				return 0, 0, err
			}
			sp = tr.begin("congest.wave")
			value, mRest, err := ecc.Eval(tau)
			tr.endEngine(sp, mRest)
			if err != nil {
				return 0, 0, err
			}
			return value, mWalk.Rounds + mRest.Rounds, nil
		}}
	}, tr: tr}
	eps := float64(d) / (2 * float64(n))
	if eps > 1 {
		eps = 1
	}
	sp := tr.begin("query.maximum")
	qr, err := query.Maximum(o, eps, query.Options{Delta: 0.1, Seed: seed})
	tr.end(sp)
	if err != nil {
		return core.Result{}, err
	}
	// Maximum charges Setup and Evaluation once per black-box application
	// (amplify counts them in step), so the charged rounds fix the number
	// of applications: Rounds = Init + calls*(Setup + 2*Eval + 1).
	calls := float64(qr.Rounds-qr.InitRounds) / float64(qr.SetupRounds+2*qr.EvalRounds+1)
	tr.value("query.eval_calls", calls)
	tr.value("query.distinct_evals", float64(distinct))
	tr.value("query.iterations", float64(qr.Iterations))
	tr.value("query.distinct_ratio", ratio(float64(distinct), calls))
	return core.Result{
		Diameter:     qr.Value,
		Rounds:       qr.Rounds,
		InitRounds:   qr.InitRounds,
		SetupRounds:  qr.SetupRounds,
		EvalRounds:   qr.EvalRounds,
		Iterations:   qr.Iterations,
		LeaderQubits: qr.LeaderQubits,
		NodeQubits:   qr.NodeQubits,
	}, nil
}

// tracedPreprocess builds the topology and runs the preprocessing, each in
// a span: the opening phases of every recomposition.
func tracedPreprocess(g *graph.Graph, tr *tracer) (*congest.Topology, *congest.PreInfo, congest.Metrics, error) {
	sp := tr.begin("congest.topology")
	topo, err := congest.NewTopology(g)
	tr.end(sp)
	if err != nil {
		return nil, nil, congest.Metrics{}, err
	}
	sp = tr.begin("congest.preprocess")
	info, pre, err := congest.PreprocessOn(topo)
	tr.endEngine(sp, pre)
	return topo, info, pre, err
}

// tracedOracle is the benchmark's query.Oracle over one Evaluation family;
// it times the construction of each context's sessions.
type tracedOracle struct {
	domain      []int
	init, setup int
	newCtx      func() query.Context
	tr          *tracer
}

func (o *tracedOracle) Domain() []int    { return o.domain }
func (o *tracedOracle) InitRounds() int  { return o.init }
func (o *tracedOracle) SetupRounds() int { return o.setup }
func (o *tracedOracle) NewContext() query.Context {
	sp := o.tr.begin("congest.session")
	defer o.tr.end(sp)
	return o.newCtx()
}

type tracedContext struct {
	eval  func(x int) (int, int, error)
	close func()
}

func (c *tracedContext) Eval(x int) (int, int, error) { return c.eval(x) }
func (c *tracedContext) Close()                       { c.close() }

// --- classical-rr256: ClassicalExactDiameter, the [PRT12] baseline. ---

type classicalInst struct {
	g    *graph.Graph
	want int
}

func (c *classicalInst) prepare() (err error) {
	c.want, err = c.g.Diameter()
	return err
}

func (c *classicalInst) check(o outcome) error {
	if got := o.key.(congest.ExactResult).Diameter; got != c.want {
		return fmt.Errorf("classical diameter %d, oracle %d", got, c.want)
	}
	return nil
}

func (c *classicalInst) call(_ int, tr *tracer) (outcome, error) {
	var r congest.ExactResult
	var err error
	if tr == nil {
		r, err = congest.ClassicalExactDiameter(c.g)
	} else {
		r, err = tracedClassical(c.g, tr)
	}
	return outcome{rounds: r.Metrics.Rounds, key: r}, err
}

// tracedClassical is congest.ClassicalExactDiameter for n > 1, recomposed
// from its phases: preprocessing, the full Euler-tour walk (2(n-1) steps),
// the all-initiator wave and the max convergecast.
func tracedClassical(g *graph.Graph, tr *tracer) (congest.ExactResult, error) {
	var res congest.ExactResult
	topo, info, m, err := tracedPreprocess(g, tr)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	tourLen := 2 * (g.N() - 1)
	sp := tr.begin("classical.walk")
	tau, m, err := congest.TokenWalkOn(topo, info, info.Children, info.Leader, tourLen)
	tr.endEngine(sp, m)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	if slices.Min(tau) < 0 {
		return res, errors.New("full DFS walk missed a vertex")
	}
	sp = tr.begin("classical.wave")
	dv, m, err := congest.WaveOn(topo, tau, 2*tourLen+2*info.D+2)
	tr.endEngine(sp, m)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	sp = tr.begin("classical.convergecast")
	res.Diameter, _, m, err = congest.ConvergecastMaxOn(topo, info, dv, nil)
	tr.endEngine(sp, m)
	res.Metrics.Add(m)
	return res, err
}

// --- ecc-path512: Eccentricities, one Evaluation per vertex. ---

type eccInst struct {
	g    *graph.Graph
	want []int
}

func (e *eccInst) prepare() (err error) {
	e.want, err = e.g.AllEccentricities()
	return err
}

func (e *eccInst) check(o outcome) error {
	if !slices.Equal(o.key.(core.EccResult).Ecc, e.want) {
		return errors.New("eccentricities differ from the oracle")
	}
	return nil
}

func (e *eccInst) call(_ int, tr *tracer) (outcome, error) {
	var r core.EccResult
	var err error
	if tr == nil {
		r, err = core.Eccentricities(e.g, core.Options{})
	} else {
		r, err = tracedEccentricities(e.g, tr)
	}
	return outcome{rounds: r.Rounds, key: r}, err
}

// tracedEccentricities is core.Eccentricities on an unweighted graph with
// n > 2, recomposed: one single-initiator EccSession of 2D+1 wave rounds,
// run for every vertex under query.EvalAll.
func tracedEccentricities(g *graph.Graph, tr *tracer) (core.EccResult, error) {
	topo, info, pre, err := tracedPreprocess(g, tr)
	if err != nil {
		return core.EccResult{}, err
	}
	n := g.N()
	o := &tracedOracle{domain: identity(n), init: pre.Rounds, setup: info.D + 1, newCtx: func() query.Context {
		ecc := congest.NewEccSession(topo, info, 2*info.D+1)
		tau := make([]int, n)
		for i := range tau {
			tau[i] = -1
		}
		last := -1
		return &tracedContext{close: ecc.Close, eval: func(u0 int) (int, int, error) {
			if last >= 0 {
				tau[last] = -1
			}
			tau[u0], last = 0, u0
			sp := tr.begin("congest.eval")
			value, m, err := ecc.Eval(tau)
			tr.endEngine(sp, m)
			return value, m.Rounds, err
		}}
	}, tr: tr}
	sp := tr.begin("query.evalall")
	ecc, evalRounds, err := query.EvalAll(o, query.Options{})
	tr.end(sp)
	if err != nil {
		return core.EccResult{}, err
	}
	tr.value("query.eval_calls", float64(n))
	tr.value("query.distinct_evals", float64(n))
	tr.value("query.iterations", 0)
	tr.value("query.distinct_ratio", 1)
	return core.EccResult{Ecc: ecc, Rounds: pre.Rounds + n*evalRounds, InitRounds: pre.Rounds, EvalRounds: evalRounds}, nil
}

// --- apsp-er256: quantum APSP through the skeleton oracle, Parallel 2. ---

type apspInst struct {
	g     *graph.Graph
	seed  int64
	table [][]int // Dijkstra rows, computed before timing
}

func (a *apspInst) prepare() error {
	a.table = make([][]int, a.g.N())
	for s := range a.table {
		a.table[s] = a.g.Dijkstra(s)
	}
	return nil
}

func (a *apspInst) check(o outcome) error {
	if r := o.key.(core.ApspResult); r.Sources != a.g.N() {
		return fmt.Errorf("apsp emitted %d rows, want %d", r.Sources, a.g.N())
	}
	return nil
}

// apspParallel is the number of cloned sessions APSP runs; the sweep emits
// rows in blocks of that many.
const apspParallel = 2

func (a *apspInst) call(_ int, tr *tracer) (outcome, error) {
	opts := core.Options{Seed: derive(a.seed, streamQuery, 0), Parallel: apspParallel,
		Engine: []congest.Option{congest.WithWorkers(1)}}
	var topoS, preS float64
	if tr != nil {
		// APSP's planner is internal, so its split comes from separately
		// timed topology and preprocessing plus the emit timestamps. core
		// repeats both inside the call, so the traced call also pays for
		// them once more: APSP's trace.overhead includes that duplicate.
		tsp := tr.begin("congest.topology")
		topo, err := congest.NewTopology(a.g)
		tr.end(tsp)
		if err != nil {
			return outcome{}, err
		}
		psp := tr.begin("congest.preprocess")
		_, pre, err := congest.PreprocessOn(topo, opts.Engine...)
		tr.endCounts(psp, pre)
		if err != nil {
			return outcome{}, err
		}
		topoS, preS = spanSeconds(tr, tsp), spanSeconds(tr, psp)
	}
	var blockStarts []int64 // emit time of each block's first row
	sweep := tr.begin("apsp.sweep")
	r, err := core.APSP(a.g, opts, func(s int, row []int) error {
		if tr != nil && s%apspParallel == 0 {
			blockStarts = append(blockStarts, tr.now())
		}
		if !slices.Equal(row, a.table[s]) {
			return fmt.Errorf("apsp row %d differs from Dijkstra", s)
		}
		return nil
	})
	if tr != nil && err == nil && len(blockStarts) > 0 {
		// The sweep span is still open, so the blocks become its children.
		var blocks []float64
		for k := 1; k < len(blockStarts); k++ {
			tr.add("apsp.block", blockStarts[k-1], blockStarts[k])
			blocks = append(blocks, float64(blockStarts[k]-blockStarts[k-1])/1e9)
		}
		firstRow := float64(blockStarts[0]-tr.spans[sweep].Start) / 1e9
		tr.value("apsp.first_row_s", firstRow)
		tr.value("apsp.oracle_build_s", firstRow-topoS-preS-median(blocks))
	}
	tr.endEngine(sweep, congest.Metrics{Rounds: r.Rounds})
	return outcome{rounds: r.Rounds, key: r}, err
}

func spanSeconds(tr *tracer, id int) float64 {
	return float64(tr.spans[id].End-tr.spans[id].Start) / 1e9
}

// --- flood-grid512: a BFS flood on a streamed 512x512 grid. ---

// kindDist is the flood's wire kind, from the user-reserved range 20..31.
const kindDist = congest.Kind(20)

// distMsg carries a BFS distance, pre-incremented by the sender.
type distMsg struct{ D int }

func (m *distMsg) WireKind() congest.Kind          { return kindDist }
func (m *distMsg) MarshalWire(w *congest.Writer)   { w.WriteID(m.D, w.N) }
func (m *distMsg) UnmarshalWire(r *congest.Reader) { m.D = r.ReadID(r.N) }

func init() {
	congest.RegisterKind(kindDist, "bench-dist", func() congest.WireMessage { return new(distMsg) })
}

// floodNode learns its distance from the source and relays it once; only
// the source acts spontaneously, which NextWake tells the scheduler.
type floodNode struct {
	src  bool
	dist int // -1 until reached
	pend bool
	tx   distMsg
	rx   distMsg
}

func (f *floodNode) Send(env *congest.Env, out *congest.Outbox) {
	if f.src && f.dist == -1 {
		f.dist, f.pend = 0, true
	}
	if !f.pend {
		return
	}
	f.pend = false
	f.tx.D = f.dist + 1
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *floodNode) Receive(env *congest.Env, inbox []congest.Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != kindDist || in.Decode(env, &f.rx) != nil {
			continue
		}
		if f.dist == -1 || f.rx.D < f.dist {
			f.dist, f.pend = f.rx.D, true
		}
	}
}

func (f *floodNode) Done() bool { return f.dist >= 0 && !f.pend }

func (f *floodNode) NextWake(_ *congest.Env, round int) int {
	switch {
	case f.src && f.dist == -1:
		return 1
	case f.pend:
		return round + 1
	}
	return congest.NeverWake
}

type floodInst struct {
	side    int
	csr     *graph.CSR
	topo    *congest.Topology
	corners [4]int
	want    [4][]int32 // BFS distances from each corner
}

// floodOut is a flood call's output: the source corner and the nodes.
type floodOut struct {
	corner int
	nodes  []floodNode
}

// setupFlood streams the grid into CSR and builds the topology on it.
func setupFlood(sz sizes, _ int64, tr *tracer) (instance, error) {
	side := sz.side
	sp := tr.begin("graph.build")
	csr, err := graph.BuildCSRFromStream(side*side, graph.GridEdges(side, side))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("congest.topology")
	topo, err := congest.NewTopologyFromCSR(csr)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &floodInst{side: side, csr: csr, topo: topo, corners: [4]int{0, side - 1, side * (side - 1), side*side - 1}}, nil
}

func (f *floodInst) prepare() error {
	n := f.csr.N()
	for k, src := range f.corners {
		f.want[k] = make([]int32, n)
		if reached, _ := f.csr.BFSInto(src, f.want[k], make([]int32, n)); reached != n {
			return fmt.Errorf("grid BFS reached %d of %d vertices", reached, n)
		}
	}
	return nil
}

// call i floods from corner i mod 4. The corners are symmetric, but the
// engine scans vertices in id order, so a flood's cost depends on where
// it starts; cycling through all four keeps every run's mix the same.
func (f *floodInst) call(i int, tr *tracer) (outcome, error) {
	k := i % len(f.corners)
	sp := tr.begin("congest.network")
	nodes := make([]floodNode, f.topo.N())
	nw := congest.NewNetworkOn(f.topo, func(v int) congest.Node {
		nodes[v] = floodNode{src: v == f.corners[k], dist: -1}
		return &nodes[v]
	})
	tr.end(sp)
	sp = tr.begin("congest.run")
	err := nw.Run(4*f.side + 16)
	tr.endEngine(sp, nw.Metrics())
	return outcome{rounds: nw.Metrics().Rounds, key: nw.Metrics(), out: floodOut{k, nodes}}, err
}

func (f *floodInst) check(o outcome) error {
	out := o.out.(floodOut)
	for v, nd := range out.nodes {
		if want := f.want[out.corner][v]; nd.dist != int(want) {
			return fmt.Errorf("flood from corner %d: distance of vertex %d is %d, BFS says %d", out.corner, v, nd.dist, want)
		}
	}
	return nil
}
