package congest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// The frontier scheduler's contract: for every program in the suite,
// fresh and session-reused, Run is bit-identical to RunReference —
// outputs, Metrics, and complete observer wire traces. These tests sweep
// that whole matrix.

// schedCase is one program workload: a node family over a topology with an
// output fingerprint.
type schedCase struct {
	name        string
	topo        *Topology
	make        func(v int) Node
	maxRounds   int
	fingerprint func(at func(v int) Node, n int) string
}

// session builds c's programs as a Session; every schedCase program is
// Resettable.
func (c schedCase) session(opts ...Option) *Session[Resettable] {
	return NewSession(c.topo, func(v int) Resettable { return c.make(v).(Resettable) }, opts...)
}

// schedCapture is everything one run produces.
type schedCapture struct {
	Out     string
	Metrics Metrics
	Trace   []string
}

func runSchedCase(t *testing.T, c schedCase, run func(*Network, int) error) schedCapture {
	t.Helper()
	var trace []string
	nw := NewNetworkOn(c.topo, c.make, WithObserver(recordObs(&trace)))
	if err := run(nw, c.maxRounds); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return schedCapture{Out: c.fingerprint(nw.Node, c.topo.N()), Metrics: nw.Metrics(), Trace: trace}
}

// TestSchedulerEquivalenceSuite runs every node program of the suite,
// fresh and session-reused, against a RunReference baseline.
func TestSchedulerEquivalenceSuite(t *testing.T) {
	g := graph.RandomConnected(150, 0.03, 4)
	n := g.N()
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	d := info.D

	// Scaffolding inputs computed once, serially.
	tourLen := 2 * (n - 1)
	tau, _, err := TokenWalkOn(topo, info, info.Children, info.Leader, tourLen)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int, n)
	sources := 0
	for v := 0; v < n; v++ {
		ranks[v] = -1
		if v%19 == 0 {
			ranks[v] = sources
			sources++
		}
	}
	sspDuration := sources + 2*d + 8
	sspNW := NewNetworkOn(topo, func(v int) Node { return NewSSPNode(ranks[v], sources, sspDuration) })
	if err := sspNW.Run(sspDuration + 4); err != nil {
		t.Fatal(err)
	}
	dists := make([][]int, n)
	for v := 0; v < n; v++ {
		dists[v] = sspNW.Node(v).(*SSPNode).Dist
	}

	gw := graph.WithWeights(g, 7, 4)
	wtopo, err := NewTopology(gw)
	if err != nil {
		t.Fatal(err)
	}
	bound := wtopo.DistBound()
	cutBound := wtopo.TotalWeight()
	wDuration := n - 1

	// The skeleton relay: every fifth vertex is a skeleton vertex and seeds
	// its own slot with a value in [0, bound], or with none (-1) at every
	// fourth vertex.
	var skeleton []int
	for v := 0; v < n; v += 5 {
		skeleton = append(skeleton, v)
	}
	oracle, err := NewSkelOracle(wtopo, info, skeleton, 8)
	if err != nil {
		t.Fatal(err)
	}
	slots := len(skeleton)
	skelIn := make([][]int, n)
	for v := 0; v < n; v++ {
		if j := oracle.slotOf[v]; j >= 0 {
			skelIn[v] = make([]int, slots)
			for i := range skelIn[v] {
				skelIn[v][i] = -1
			}
			if v%4 != 0 {
				skelIn[v][j] = (v * 11) % (bound + 1)
			}
		}
	}
	slotVecs := func(at func(v int) Node, n int) string {
		var sb strings.Builder
		for v := 0; v < n; v++ {
			fmt.Fprintf(&sb, "%v;", at(v).(*SlotConvergecastNode).Vec)
		}
		return sb.String()
	}

	cases := []schedCase{
		{
			name: "leader", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewLeaderElectNode() },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*LeaderElectNode).Leader)
				}
				return sb.String()
			},
		},
		{
			name: "bfs", topo: topo, maxRounds: 8*n + 16,
			make: func(v int) Node { return NewBFSNode(info.Leader) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					b := at(v).(*BFSNode)
					fmt.Fprintf(&sb, "%d/%d/%v/%d;", b.Dist, b.Parent, b.Children, b.Ecc)
				}
				return sb.String()
			},
		},
		{
			name: "walk", topo: topo, maxRounds: tourLen + 4,
			make: func(v int) Node {
				return NewTokenWalkNode(info.Parent[v], info.Children[v], info.Leader, info.Leader, tourLen)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*TokenWalkNode).Tau)
				}
				return sb.String()
			},
		},
		{
			name: "wave", topo: topo, maxRounds: 2*tourLen + 2*d + 8,
			make: func(v int) Node { return NewWaveNode(tau[v] >= 0, tau[v], 2*tourLen+2*d+2) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					w := at(v).(*WaveNode)
					fmt.Fprintf(&sb, "%d/%d/%v;", w.TV, w.DV, w.Violation)
				}
				return sb.String()
			},
		},
		{
			name: "cc-max", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastNode(KindMax, info.Parent[v], info.Children[v], (v*13)%97, v, 0)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					c := at(v).(*ConvergecastNode)
					fmt.Fprintf(&sb, "%d/%d;", c.Agg, c.AggWitness)
				}
				return sb.String()
			},
		},
		{
			name: "bcast", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewBroadcastNode(info.Parent[v], info.Children[v], 42) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*BroadcastNode).Value)
				}
				return sb.String()
			},
		},
		{
			name: "minflood", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node { return NewMinFloodNode(v%17 == 0) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					m := at(v).(*MinFloodNode)
					fmt.Fprintf(&sb, "%d/%d;", m.Dist, m.Src)
				}
				return sb.String()
			},
		},
		{
			name: "cc-sum", topo: topo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastNode(KindSum, info.Parent[v], info.Children[v], v%5, v, 0)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*ConvergecastNode).Agg)
				}
				return sb.String()
			},
		},
		{
			name: "ssp", topo: topo, maxRounds: sspDuration + 4,
			make: func(v int) Node { return NewSSPNode(ranks[v], sources, sspDuration) },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%v;", at(v).(*SSPNode).Dist)
				}
				return sb.String()
			},
		},
		{
			name: "src-max", topo: topo, maxRounds: d + sources + 8,
			make: func(v int) Node {
				return NewSlotConvergecastNode(info, v, KindSrcMax, kindInvalid, sources, 0, -1, dists[v])
			},
			fingerprint: slotVecs,
		},
		{
			name: "skel-relay", topo: wtopo, maxRounds: oracle.relayDuration() + 4,
			make: func(v int) Node {
				return NewSlotConvergecastNode(info, v, KindSkelUp, KindSkelDown, slots, bound, oracle.slotOf[v], skelIn[v])
			},
			fingerprint: slotVecs,
		},
		{
			name: "weighted-sssp", topo: wtopo, maxRounds: wDuration + 4,
			make: func(v int) Node {
				return NewWeightedSSSPNode(v == 3, wtopo.NeighborWeights(v), bound, wDuration)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*WeightedSSSPNode).Dist)
				}
				return sb.String()
			},
		},
		{
			name: "weighted-max", topo: wtopo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastNode(KindWMax, info.Parent[v], info.Children[v], (v*7)%bound, v, bound)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					c := at(v).(*ConvergecastNode)
					fmt.Fprintf(&sb, "%d/%d;", c.Agg, c.AggWitness)
				}
				return sb.String()
			},
		},
		{
			name: "cut-sum", topo: wtopo, maxRounds: 4*n + 16,
			make: func(v int) Node {
				return NewConvergecastNode(KindCutSum, info.Parent[v], info.Children[v], v%2, v, cutBound)
			},
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					fmt.Fprintf(&sb, "%d;", at(v).(*ConvergecastNode).Agg)
				}
				return sb.String()
			},
		},
		{
			name: "notify", topo: topo, maxRounds: 8,
			make: func(v int) Node { return &notifyNode{Parent: info.Parent[v], Marked: v%3 == 0} },
			fingerprint: func(at func(v int) Node, n int) string {
				var sb strings.Builder
				for v := 0; v < n; v++ {
					ch := append([]int(nil), at(v).(*notifyNode).MarkedChildren...)
					sort.Ints(ch)
					fmt.Fprintf(&sb, "%v;", ch)
				}
				return sb.String()
			},
		},
	}

	for _, c := range cases {
		auditWakes(t, c)
		checkSchedCase(t, c)
	}
}

// checkSchedCase runs c fresh on Run and twice on one Session and requires
// every execution to match a RunReference baseline bit for bit: outputs,
// Metrics and the observer wire trace.
func checkSchedCase(t *testing.T, c schedCase) {
	t.Helper()
	want := runSchedCase(t, c, (*Network).RunReference)
	got := runSchedCase(t, c, (*Network).Run)
	if got.Out != want.Out {
		t.Errorf("%s: outputs differ from RunReference", c.name)
	}
	if got.Metrics != want.Metrics {
		t.Errorf("%s: Metrics = %+v, want %+v", c.name, got.Metrics, want.Metrics)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Errorf("%s: observer trace differs from RunReference (%d vs %d events)",
			c.name, len(got.Trace), len(want.Trace))
	}

	// Session dimension: build once, Run twice; both executions must
	// match the reference bit for bit.
	var trace []string
	sess := c.session(WithObserver(recordObs(&trace)))
	for rerun := 0; rerun < 2; rerun++ {
		trace = trace[:0]
		if err := sess.Run(c.maxRounds); err != nil {
			t.Fatalf("%s rerun %d: %v", c.name, rerun, err)
		}
		if out := c.fingerprint(func(v int) Node { return sess.Node(v) }, c.topo.N()); out != want.Out {
			t.Errorf("%s session rerun %d: outputs differ from RunReference", c.name, rerun)
		}
		if sess.Metrics() != want.Metrics {
			t.Errorf("%s session rerun %d: Metrics = %+v, want %+v",
				c.name, rerun, sess.Metrics(), want.Metrics)
		}
		if !reflect.DeepEqual(trace, want.Trace) {
			t.Errorf("%s session rerun %d: observer trace differs", c.name, rerun)
		}
	}
}

// wakeAudit wraps a Scheduled program to check the contract under
// RunReference, which executes every vertex every round: it records the
// program's latest NextWake answer and logs every round in which the
// vertex emits although that answer had not called for the round. The
// frontier engine skips such a Send, so each logged emission is one the
// engine would lose. The answer is asked when the frontier engine asks it:
// before round 1, and after a round that the engine would execute the
// vertex in — one its last answer called for, or one that delivers it a
// message. Asking after every round would let an answer given in a round
// the engine skips cover for the answer the engine acted on.
type wakeAudit struct {
	Node
	sc    Scheduled
	wake  int
	asked bool
	bad   *[]string
}

func (a *wakeAudit) Send(env *Env, out *Outbox) {
	if !a.asked {
		e0 := *env
		e0.Round = 0
		a.wake, a.asked = a.sc.NextWake(&e0, 0), true
	}
	before := out.sent()
	a.Node.Send(env, out)
	if out.sent() > before && (a.wake == NeverWake || a.wake > env.Round) {
		*a.bad = append(*a.bad, fmt.Sprintf("vertex %d emits in round %d, but its last NextWake answered %d",
			env.ID, env.Round, a.wake))
	}
}

func (a *wakeAudit) Receive(env *Env, inbox []Inbound) {
	a.Node.Receive(env, inbox)
	if len(inbox) > 0 || (a.wake != NeverWake && a.wake <= env.Round) {
		a.wake = a.sc.NextWake(env, env.Round)
	}
}

// auditWakes runs c under RunReference with every Scheduled program wrapped
// in a wakeAudit and fails, naming the program, the vertex and the round,
// if any vertex emits in a round its NextWake answers did not schedule.
func auditWakes(t *testing.T, c schedCase) {
	t.Helper()
	var bad []string
	nw := NewNetworkOn(c.topo, func(v int) Node {
		nd := c.make(v)
		if sc, ok := nd.(Scheduled); ok {
			return &wakeAudit{Node: nd, sc: sc, bad: &bad}
		}
		return nd
	})
	if err := nw.RunReference(c.maxRounds); err != nil {
		t.Fatalf("%s: audit run: %v", c.name, err)
	}
	if len(bad) > 0 {
		t.Errorf("%s breaks the NextWake contract (%d emissions unscheduled): %s", c.name, len(bad), bad[0])
	}
}

// TestSchedulerEquivalenceComposites runs the composed classical algorithms
// — every phase of the Figure 2 / Figure 3 pipelines back to back — twice
// under strict accounting: the second run must match the first bit for
// bit, and every result must agree with the sequential graph oracles.
func TestSchedulerEquivalenceComposites(t *testing.T) {
	g := graph.RandomConnected(120, 0.04, 8)
	gw := graph.WithWeights(g, 6, 8)
	diam, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	eccs, err := g.AllEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	wdiam, err := gw.WeightedDiameter()
	if err != nil {
		t.Fatal(err)
	}
	type comp struct {
		name string
		// run returns the result fingerprint, its disagreement with the
		// oracle (nil when it agrees) and the run's own error.
		run func(opts ...Option) (got string, bad, err error)
	}
	comps := []comp{
		{"classical-exact", func(opts ...Option) (string, error, error) {
			r, err := ClassicalExactDiameter(g, opts...)
			var bad error
			if r.Diameter != diam {
				bad = fmt.Errorf("diameter %d, oracle %d", r.Diameter, diam)
			}
			return fmt.Sprintf("%+v", r), bad, err
		}},
		{"classical-approx", func(opts ...Option) (string, error, error) {
			r, err := ClassicalApproxDiameter(g, 0, 8, opts...)
			var bad error
			if r.Diameter > diam || r.Diameter < 2*diam/3 {
				bad = fmt.Errorf("estimate %d outside [floor(2D/3), D] for D = %d", r.Diameter, diam)
			}
			return fmt.Sprintf("%+v", r), bad, err
		}},
		{"classical-ecc", func(opts ...Option) (string, error, error) {
			ecc, m, err := ClassicalEccentricities(g, opts...)
			var bad error
			if !reflect.DeepEqual(ecc, eccs) {
				bad = fmt.Errorf("eccentricities %v, oracle %v", ecc, eccs)
			}
			return fmt.Sprintf("%v %+v", ecc, m), bad, err
		}},
		{"classical-weighted", func(opts ...Option) (string, error, error) {
			r, err := ClassicalWeightedDiameter(gw, opts...)
			var bad error
			if r.Diameter != wdiam {
				bad = fmt.Errorf("weighted diameter %d, oracle %d", r.Diameter, wdiam)
			}
			return fmt.Sprintf("%+v", r), bad, err
		}},
	}
	for _, c := range comps {
		var want string
		for rerun := 0; rerun < 2; rerun++ {
			got, bad, err := c.run(WithStrictAccounting())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if bad != nil {
				t.Errorf("%s: %v", c.name, bad)
			}
			if rerun == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s rerun:\n got %s\nwant %s", c.name, got, want)
			}
		}
	}
}

// pulseNode is a Scheduled test program with long idle gaps: vertex 0
// broadcasts at the configured rounds; everyone finishes at the last one.
// It exercises the scheduler's idle-round skipping.
type pulseNode struct {
	wakes []int // ascending broadcast rounds of vertex 0
	idx   int
	seen  int
	done  bool
	tx    msgChild
}

func (p *pulseNode) last() int { return p.wakes[len(p.wakes)-1] }

func (p *pulseNode) Send(env *Env, out *Outbox) {
	if env.ID != 0 {
		return
	}
	if p.idx < len(p.wakes) && env.Round == p.wakes[p.idx] {
		p.idx++
		out.Broadcast(env.Neighbors, &p.tx)
	}
}

func (p *pulseNode) Receive(env *Env, inbox []Inbound) {
	p.seen += len(inbox)
	if env.Round >= p.last() {
		p.done = true
	}
}

func (p *pulseNode) Done() bool { return p.done }

func (p *pulseNode) StateBits() int { return 64 + p.seen }

func (p *pulseNode) NextWake(env *Env, round int) int {
	if p.done {
		return NeverWake
	}
	if env.ID == 0 && p.idx < len(p.wakes) {
		if w := p.wakes[p.idx]; w > round {
			return w
		}
		return round + 1
	}
	if w := p.last(); w > round {
		return w
	}
	return round + 1
}

func (p *pulseNode) ResetNode() {
	p.idx, p.seen, p.done = 0, 0, false
}

// TestDroppedRoundsSchedulerInvariant is the Metrics.DroppedRounds table
// test: an all-idle round that the frontier scheduler skips must account
// identically to an empty round executed by RunReference — same Rounds,
// same DroppedRounds, same everything — including on timeout errors inside
// a gap.
func TestDroppedRoundsSchedulerInvariant(t *testing.T) {
	g := graph.Path(40)
	cases := []struct {
		name          string
		wakes         []int
		maxRounds     int
		wantErr       bool
		wantRounds    int
		wantDropped   int
		wantSkipped   bool // documents which rows exercise real gaps
		wantDelivered int  // messages: one broadcast from vertex 0 per pulse
	}{
		{"no-gap", []int{1, 2, 3}, 50, false, 3, 0, false, 3},
		{"single-late-pulse", []int{5}, 50, false, 5, 4, true, 1},
		{"two-pulses-long-gap", []int{1, 40}, 80, false, 40, 38, true, 2},
		{"gap-to-timeout", []int{50}, 10, true, 10, 10, true, 0},
	}
	for _, tc := range cases {
		runM := func(run func(*Network, int) error) (Metrics, error) {
			nw, err := NewNetwork(g, func(v int) Node { return &pulseNode{wakes: tc.wakes} })
			if err != nil {
				t.Fatal(err)
			}
			runErr := run(nw, tc.maxRounds)
			return nw.Metrics(), runErr
		}
		wantM, wantErr := runM((*Network).RunReference)
		if (wantErr != nil) != tc.wantErr {
			t.Fatalf("%s: reference err = %v, want error %v", tc.name, wantErr, tc.wantErr)
		}
		if wantM.Rounds != tc.wantRounds || wantM.DroppedRounds != tc.wantDropped {
			t.Fatalf("%s: reference Rounds/Dropped = %d/%d, want %d/%d",
				tc.name, wantM.Rounds, wantM.DroppedRounds, tc.wantRounds, tc.wantDropped)
		}
		if want := tc.wantDelivered * len(g.Neighbors(0)); wantM.Messages != want {
			t.Fatalf("%s: reference Messages = %d, want %d", tc.name, wantM.Messages, want)
		}
		gotM, gotErr := runM((*Network).Run)
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: Run err %v, reference err %v", tc.name, gotErr, wantErr)
		}
		if gotM != wantM {
			t.Errorf("%s: Run Metrics = %+v, reference %+v", tc.name, gotM, wantM)
		}
	}
}

// plainFloodNode is a BFS flood written without the Scheduled contract, so
// the frontier engine keeps it always active: the source waits until round
// start (rounds before it are idle rounds), then every vertex relays its
// distance once, the round after it learns it. heard hashes the senders of
// every delivered message in delivery order, so a lost, duplicated or
// reordered message changes the output.
type plainFloodNode struct {
	source bool
	start  int
	dist   int // -1 until reached
	pend   bool
	heard  uint64
	tx, rx msgActivate
}

func (f *plainFloodNode) Send(env *Env, out *Outbox) {
	if f.source && f.dist == -1 && env.Round >= f.start {
		f.dist, f.pend = 0, true
	}
	if !f.pend {
		return
	}
	f.pend = false
	f.tx.Dist = f.dist + 1
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *plainFloodNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		f.heard = f.heard*1000003 + uint64(in.From+1)
		if in.Decode(env, &f.rx) != nil {
			continue
		}
		if f.dist == -1 {
			f.dist, f.pend = f.rx.Dist, true
		}
	}
}

func (f *plainFloodNode) Done() bool     { return f.dist >= 0 && !f.pend }
func (f *plainFloodNode) StateBits() int { return 16 + 2*(f.dist+1) }

func (f *plainFloodNode) ResetNode() {
	f.dist, f.pend, f.heard = -1, false, 0
}

// wakeFloodNode is the same flood under the Scheduled contract: the source
// sleeps until start, and everything else is message-driven.
type wakeFloodNode struct{ plainFloodNode }

func (f *wakeFloodNode) NextWake(env *Env, round int) int {
	switch {
	case f.source && f.dist == -1:
		return f.start
	case f.pend:
		return round + 1
	}
	return NeverWake
}

// countedFlood is a message-driven BFS flood that counts its Send and
// Receive executions. A vertex announces its own distance (so the payload
// stays inside the id range on a path from an endpoint) in the round after
// it learns it; heard hashes the senders of every delivered message in
// delivery order.
type countedFlood struct {
	dist         int // -1 until reached
	pend         bool
	heard        uint64
	sends, recvs int
	tx, rx       msgActivate
}

func (f *countedFlood) Send(env *Env, out *Outbox) {
	f.sends++
	if !f.pend {
		return
	}
	f.pend = false
	f.tx.Dist = f.dist
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *countedFlood) Receive(env *Env, inbox []Inbound) {
	f.recvs++
	for i := range inbox {
		in := &inbox[i]
		f.heard = f.heard*1000003 + uint64(in.From+1)
		if in.Decode(env, &f.rx) == nil && f.dist == -1 {
			f.dist, f.pend = f.rx.Dist+1, true
		}
	}
}

func (f *countedFlood) Done() bool { return f.dist >= 0 && !f.pend }

func (f *countedFlood) NextWake(env *Env, round int) int {
	if f.pend {
		return round + 1
	}
	return NeverWake
}

// TestNextWakeIsTheOnlySchedulingRule pins the frontier invariant's
// execution counts on a flood along Path(64) from vertex 0. A vertex's Send
// runs only when NextWake calls for it, so each vertex sends exactly once:
// a reception alone, such as the stale echo every interior vertex gets back
// from its successor, schedules nothing. The Receive half runs over the
// frontier and the receivers: 2 executions in round 1, 3 in each of rounds
// 2..63 (the sender and both of its neighbors), and 2 in round 64.
// Outputs and Metrics must still equal RunReference.
func TestNextWakeIsTheOnlySchedulingRule(t *testing.T) {
	const n = 64
	topo := mustTopology(t, graph.Path(n))
	build := func() (*[n]countedFlood, func(v int) Node) {
		var progs [n]countedFlood
		return &progs, func(v int) Node {
			progs[v] = countedFlood{dist: -1}
			if v == 0 {
				progs[v].dist, progs[v].pend = 0, true
			}
			return &progs[v]
		}
	}
	outputs := func(progs *[n]countedFlood) string {
		var sb strings.Builder
		for v := range progs {
			fmt.Fprintf(&sb, "%d/%x;", progs[v].dist, progs[v].heard)
		}
		return sb.String()
	}
	refProgs, refMake := build()
	ref := NewNetworkOn(topo, refMake)
	if err := ref.RunReference(4 * n); err != nil {
		t.Fatal(err)
	}
	progs, mk := build()
	nw := NewNetworkOn(topo, mk)
	if err := nw.Run(4 * n); err != nil {
		t.Fatal(err)
	}
	if got, want := outputs(progs), outputs(refProgs); got != want {
		t.Errorf("outputs differ from RunReference")
	}
	if nw.Metrics() != ref.Metrics() {
		t.Errorf("Metrics = %+v, want %+v", nw.Metrics(), ref.Metrics())
	}
	sends, recvs := 0, 0
	for v := range progs {
		if progs[v].sends != 1 {
			t.Errorf("vertex %d ran Send %d times, want 1", v, progs[v].sends)
		}
		sends += progs[v].sends
		recvs += progs[v].recvs
	}
	if sends != n || recvs != 2+3*(n-2)+2 {
		t.Errorf("%d Send and %d Receive executions, want %d and %d", sends, recvs, n, 2+3*(n-2)+2)
	}
}

// TestAlwaysActiveProgramsMatchReference runs programs without the
// Scheduled contract — alone, and mixed with Scheduled programs on the same
// topology — through the frontier engine's always-active set, fresh and on
// Session reruns, and requires outputs, Metrics and the full observer trace
// to equal RunReference.
func TestAlwaysActiveProgramsMatchReference(t *testing.T) {
	topo := mustTopology(t, graph.Grid(65, 65))
	const start = 3
	flood := func(v int) plainFloodNode { return plainFloodNode{source: v == 2101, start: start, dist: -1} }
	fingerprint := func(at func(v int) Node, n int) string {
		var sb strings.Builder
		for v := 0; v < n; v++ {
			switch f := at(v).(type) {
			case *plainFloodNode:
				fmt.Fprintf(&sb, "%d/%x;", f.dist, f.heard)
			case *wakeFloodNode:
				fmt.Fprintf(&sb, "%d/%x;", f.dist, f.heard)
			}
		}
		return sb.String()
	}
	cases := []schedCase{
		{
			name: "contract-less", topo: topo, maxRounds: 4 * 65,
			make:        func(v int) Node { f := flood(v); return &f },
			fingerprint: fingerprint,
		},
		{
			name: "mixed", topo: topo, maxRounds: 4 * 65,
			make: func(v int) Node {
				if v%3 == 0 {
					f := flood(v)
					return &f
				}
				return &wakeFloodNode{flood(v)}
			},
			fingerprint: fingerprint,
		},
	}
	for _, c := range cases {
		want := runSchedCase(t, c, (*Network).RunReference)
		if want.Metrics.DroppedRounds != start-1 || want.Metrics.MaxStateBits == 0 {
			t.Fatalf("%s: reference Metrics %+v: want %d dropped rounds and sampled state", c.name, want.Metrics, start-1)
		}
		got := runSchedCase(t, c, (*Network).Run)
		if got.Out != want.Out {
			t.Errorf("%s: outputs differ from RunReference", c.name)
		}
		if got.Metrics != want.Metrics {
			t.Errorf("%s: Metrics = %+v, want %+v", c.name, got.Metrics, want.Metrics)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("%s: observer trace differs from RunReference (%d vs %d events)",
				c.name, len(got.Trace), len(want.Trace))
		}

		var trace []string
		sess := c.session(WithObserver(recordObs(&trace)))
		for rerun := 0; rerun < 2; rerun++ {
			trace = trace[:0]
			if err := sess.Run(c.maxRounds); err != nil {
				t.Fatalf("%s rerun %d: %v", c.name, rerun, err)
			}
			if out := c.fingerprint(func(v int) Node { return sess.Node(v) }, c.topo.N()); out != want.Out {
				t.Errorf("%s session rerun %d: outputs differ from RunReference", c.name, rerun)
			}
			if sess.Metrics() != want.Metrics {
				t.Errorf("%s session rerun %d: Metrics = %+v, want %+v",
					c.name, rerun, sess.Metrics(), want.Metrics)
			}
			if !reflect.DeepEqual(trace, want.Trace) {
				t.Errorf("%s session rerun %d: observer trace differs", c.name, rerun)
			}
		}
	}

	// A contract-less bandwidth violation fails with the reference's error.
	hog := func(v int) Node { return &duelingHogNode{threshold: 3} }
	ref := NewNetworkOn(topo, hog)
	wantErr := ref.RunReference(10)
	if wantErr == nil {
		t.Fatal("reference engine missed the bandwidth violation")
	}
	nw := NewNetworkOn(topo, hog)
	if err := nw.Run(10); err == nil || err.Error() != wantErr.Error() {
		t.Errorf("error %v, want %q", err, wantErr)
	}
	if nw.Metrics() != ref.Metrics() {
		t.Errorf("Metrics = %+v, want %+v", nw.Metrics(), ref.Metrics())
	}
}
