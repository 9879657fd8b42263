package congest

// Weighted distance programs: the CONGEST building blocks of the weighted
// distance-parameter suite (weighted diameter/radius in the sense of the
// weighted-CONGEST follow-ups to the paper). The core procedure is a
// synchronous Bellman–Ford single-source shortest-path relaxation — every
// node re-broadcasts its distance estimate whenever it improves, each copy
// pre-incremented by the traversed edge's weight — which converges within
// n-1 rounds and runs for a fixed duration so its round count is
// input-independent (the property the quantum Evaluation framework needs).
// A weighted max convergecast (the wmax kind of ConvergecastNode,
// aggregate.go) turns the per-node distances into the source's weighted
// eccentricity at the leader.
//
// Wire widths: weighted distances range over [0, (n-1)*maxW], so the
// distance fields are BitsForID(DistBound+1) bits — a function of the
// topology's weight cap, not of n alone. The bound is program configuration
// (every node knows n and the weight cap a priori, exactly like it knows n),
// never transmitted. The field lists below are the only statement of these
// widths; the codec and the declared width are both derived from them.

import (
	"fmt"

	"qcongest/internal/graph"
)

// msgWDist carries one Bellman–Ford distance estimate, pre-incremented by
// the sender with the weight of the traversed edge. Bound is the
// receiver/sender-side field-width configuration ([0, Bound]), not part of
// the payload.
type msgWDist struct {
	Dist  int
	Bound int
}

func (m *msgWDist) WireKind() Kind          { return KindWDist }
func (m *msgWDist) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgWDist) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgWDist) fields(n int) wireFields { return fields1(&m.Dist, m.Bound+1) }

func init() {
	RegisterKind(KindWDist, "wdist", func() WireMessage { return new(msgWDist) })
}

// WeightedSSSPNode runs the synchronous Bellman–Ford relaxation at one node:
// the source starts at distance 0, every improvement is re-broadcast with
// the edge weight added per neighbor, and after Duration rounds (callers use
// n-1) every node's Dist is the exact weighted distance to the source. The
// duration is fixed, so the round count never depends on the source.
type WeightedSSSPNode struct {
	Source   bool
	Weights  []int // per-neighbor edge weights aligned with env.Neighbors; nil = all 1
	Bound    int   // largest possible finite distance, Topology.DistBound()
	Duration int

	// Output.
	Dist int // weighted distance to the source; -1 if no estimate arrived

	pending  bool
	started  bool
	finished bool

	tx, rx msgWDist
}

// NewWeightedSSSPNode builds the program for one node.
func NewWeightedSSSPNode(source bool, weights []int, bound, duration int) *WeightedSSSPNode {
	return &WeightedSSSPNode{
		Source:   source,
		Weights:  weights,
		Bound:    bound,
		Duration: duration,
		Dist:     -1,
		rx:       msgWDist{Bound: bound},
	}
}

// ResetNode implements Resettable.
func (s *WeightedSSSPNode) ResetNode() {
	s.Dist = -1
	s.pending = false
	s.started = false
	s.finished = false
}

func (s *WeightedSSSPNode) weight(i int) int {
	if s.Weights == nil {
		return 1
	}
	return s.Weights[i]
}

// Send implements Node. Each neighbor receives a different value (distance
// plus that edge's weight), so the relaxation is a per-edge Put, not a
// Broadcast.
func (s *WeightedSSSPNode) Send(env *Env, out *Outbox) {
	if !s.started {
		s.started = true
		if s.Source {
			s.Dist = 0
			s.pending = true
		}
	}
	if !s.pending {
		return
	}
	s.pending = false
	s.tx.Bound = s.Bound
	for i, nb := range env.Neighbors {
		s.tx.Dist = s.Dist + s.weight(i)
		out.putAt(i, nb, &s.tx)
	}
}

// Receive implements Node.
func (s *WeightedSSSPNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindWDist || in.Decode(env, &s.rx) != nil {
			continue
		}
		if d := s.rx.Dist; s.Dist == -1 || d < s.Dist {
			s.Dist = d
			s.pending = true
		}
	}
	if env.Round >= s.Duration {
		s.finished = true
		s.pending = false
	}
}

// Done implements Node.
func (s *WeightedSSSPNode) Done() bool { return s.finished }

// NextWake implements Scheduled: every node runs round 1 (the source seeds
// the relaxation, everyone flips started); afterwards only improvements —
// which arrive as messages — are re-broadcast, and the fixed Duration
// timer finishes the schedule.
func (s *WeightedSSSPNode) NextWake(env *Env, round int) int {
	if s.finished {
		return NeverWake
	}
	if !s.started || s.pending {
		return round + 1
	}
	if s.Duration > round {
		return s.Duration
	}
	return round + 1
}

// StateBits implements StateSizer: one distance estimate and the flags.
func (s *WeightedSSSPNode) StateBits() int { return 2 * 64 }

// ssspDuration is the fixed Bellman–Ford schedule length: n-1 relaxation
// rounds reach every shortest path (at most n-1 hops).
func ssspDuration(n int) int { return max(n-1, 1) }

// relaxation is the phase runner of the Bellman–Ford relaxation of a fixed
// duration: the n-1-round relaxation of WeightedEccSession and the H-round
// truncated one of the skeleton oracle's init phase and SkelEvalSession.
type relaxation struct {
	phase[*WeightedSSSPNode]
	dist []int
}

// newRelaxation builds the relaxation over topo's edge weights, with
// distance fields sized to topo.DistBound(); the source is a run argument.
func newRelaxation(topo *Topology, duration int, what string, opts ...Option) relaxation {
	return relaxation{
		phase: newPhase(topo, func(v int) *WeightedSSSPNode {
			return NewWeightedSSSPNode(false, topo.NeighborWeights(v), topo.DistBound(), duration)
		}, duration+4, what, opts...),
		dist: make([]int, topo.N()),
	}
}

// run relaxes from source and returns every vertex's distance estimate
// (-1 for a vertex no estimate reached) with the run's Metrics. The slice
// is owned by the relaxation and only valid until the next run.
func (r relaxation) run(source int) ([]int, Metrics, error) {
	for v, s := range r.Nodes() {
		s.Source = v == source
	}
	m, err := r.exec()
	if err != nil {
		return nil, m, err
	}
	for v, s := range r.Nodes() {
		r.dist[v] = s.Dist
	}
	return r.dist, m, nil
}

// WeightedEccSession is the Evaluation of the weighted suite, the weighted
// counterpart of EccSession: one Bellman–Ford relaxation (n-1 rounds) plus
// one weighted max convergecast on BFS(leader), both of fixed,
// input-independent duration. It is built once per topology and run once
// per Evaluation; Eval returns the Metrics of every run it executed, the
// failing run included.
type WeightedEccSession struct {
	sssp relaxation
	cc   treeAgg
}

// NewWeightedEccSession builds the Bellman–Ford + weighted-convergecast pair
// on the tree described by info.
func NewWeightedEccSession(topo *Topology, info *PreInfo, opts ...Option) *WeightedEccSession {
	return &WeightedEccSession{
		sssp: newRelaxation(topo, ssspDuration(topo.N()), "weighted sssp", opts...),
		cc:   newTreeAgg(topo, info, KindWMax, topo.DistBound(), "weighted convergecast", opts...),
	}
}

// Eval computes the weighted eccentricity of source.
func (es *WeightedEccSession) Eval(source int) (int, Metrics, error) {
	dist, total, err := es.sssp.run(source)
	if err != nil {
		return 0, total, err
	}
	for v, d := range dist {
		if d < 0 {
			return 0, total, fmt.Errorf("congest: vertex %d unreached by weighted sssp from %d", v, source)
		}
	}
	ecc, m, err := es.cc.run(dist)
	total.Add(m)
	return ecc, total, err
}

// ClassicalWeightedDiameter computes the exact weighted diameter by running
// one weighted Evaluation per vertex on a reused session — the Theta(n^2)
// classical baseline the quantum weighted suite is compared against.
func ClassicalWeightedDiameter(g *graph.Graph, opts ...Option) (ExactResult, error) {
	var res ExactResult
	topo, err := classicalTopology(g)
	if topo == nil {
		return res, err
	}
	info, m, err := PreprocessOn(topo, opts...)
	if err != nil {
		return res, err
	}
	res.Metrics.Add(m)
	es := NewWeightedEccSession(topo, info, opts...)
	for v := 0; v < topo.N(); v++ {
		ecc, m, err := es.Eval(v)
		if err != nil {
			return res, err
		}
		res.Metrics.Add(m)
		if ecc > res.Diameter {
			res.Diameter = ecc
		}
	}
	return res, nil
}
