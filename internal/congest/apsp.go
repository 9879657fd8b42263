package congest

// Skeleton distance oracle: the CONGEST building blocks of the quantum APSP
// and sublinear weighted diameter/radius suite (the Wang–Wu–Yao and Wu–Yao
// follow-ups to the paper). The classical weighted Evaluation of weighted.go
// runs Bellman–Ford for a fixed n-1 rounds; the skeleton oracle replaces
// that inner loop with the papers' two-regime schedule:
//
//   - paths of at most H hops are covered exactly by an H-round truncated
//     Bellman–Ford relaxation (the same WeightedSSSPNode program with
//     Duration = H, whose output is the exact H-hop-bounded distance d^H);
//   - longer paths are stitched through a skeleton set S that hits every
//     H-hop window of a shortest path: exact skeleton-to-skeleton distances
//     d_S are the transitive closure of the H-hop distances between
//     skeleton vertices, computed once at the leader during init, and every
//     vertex v stores dsv[j] = min_i ( d_S(s_j, s_i) + d^H(s_i, v) ).
//
// One Evaluation of the oracle from source u is then three fixed-schedule
// phases — H-round relaxation from u, a pipelined relay of the |S| values
// d^H(u, s_j) through the BFS tree (gather to the root, broadcast back
// down; new wire kinds KindSkelUp/KindSkelDown), and a weighted max
// convergecast — for Θ(H + D + |S|) rounds instead of n-1, with
// d(u, v) = min( d^H(u, v), min_j d^H(u, s_j) + dsv[j] ) available at every
// vertex v. Every candidate is the length of a real walk, so the combine
// never underestimates; exactness needs S to hit every H-hop window of
// some min-hop shortest path (guaranteed when S = V, with high probability
// for a random S of size Θ((n/H) log n)).
//
// Wire widths: the relay carries (slot, value) pairs with slot in [0, |S|)
// and value in [0, Bound+1], where Bound+1 encodes "no value within H hops"
// — BitsForID(|S|) + BitsForID(Bound+2) payload bits, the same O(log n +
// log Bound) budget as the weighted relaxation messages, derived from the
// one field list skelFields declares.

import (
	"fmt"
	"math"
)

// skelNoVal is the wire encoding of "no value within H hops" for a relay
// slot: one past the largest finite distance.
func skelNoVal(bound int) int { return bound + 1 }

// skelInf is the program-side infinity of the oracle's local tables. It is
// strictly larger than any distance the oracle accepts (NewSkelOracle
// rejects bounds above skelMaxBound), so clamped sums never shadow a real
// distance, and two clamped values still add without overflowing.
const skelInf = math.MaxInt / 4

// skelMaxBound caps the distance bound the skeleton oracle accepts: local
// table entries are sums of up to two bound-ranged walk lengths plus a
// clamped partial result, and the cap keeps every such sum below skelInf.
const skelMaxBound = math.MaxInt / 8

type (
	// msgSkelUp carries one (slot, value) pair of the gather phase toward
	// the root: the minimum of the slot's value over the sender's subtree.
	// Slots and Bound are field-width configuration (every node knows |S|
	// and the weight cap a priori, like it knows n), never transmitted.
	msgSkelUp struct {
		Slot  int
		Val   int
		Slots int
		Bound int
	}
	// msgSkelDown carries one (slot, value) pair of the broadcast phase
	// down the tree: the root's (global) value for the slot.
	msgSkelDown struct {
		Slot  int
		Val   int
		Slots int
		Bound int
	}
)

func (m *msgSkelUp) WireKind() Kind          { return KindSkelUp }
func (m *msgSkelUp) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgSkelUp) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgSkelUp) fields(n int) wireFields { return skelFields(&m.Slot, &m.Val, m.Slots, m.Bound) }

func (m *msgSkelDown) WireKind() Kind          { return KindSkelDown }
func (m *msgSkelDown) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgSkelDown) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgSkelDown) fields(n int) wireFields { return skelFields(&m.Slot, &m.Val, m.Slots, m.Bound) }

// skelFields is the (slot, value) layout both relay kinds share: the slot
// in [0, slots), then the value in [0, bound+2) (skelNoVal included).
func skelFields(slot, val *int, slots, bound int) wireFields {
	return fields2(slot, slots, val, bound+2)
}

func init() {
	RegisterKind(KindSkelUp, "skel-up", func() WireMessage { return new(msgSkelUp) })
	RegisterKind(KindSkelDown, "skel-down", func() WireMessage { return new(msgSkelDown) })
}

// SkelRelayNode relays the per-slot values held at the skeleton vertices to
// every node, pipelined one slot per round over the BFS tree: a gather
// phase (min convergecast per slot, exactly one value is finite) followed
// by a broadcast phase, both on the SourceMaxNode schedule. A node at depth
// k transmits slot i upward at round (D - k) + i + 1 and downward at round
// gatherEnd + k + i + 1; the whole relay takes 2(D + Slots + 1) rounds,
// fixed and input-independent.
type SkelRelayNode struct {
	Parent   int
	Children []int
	Depth    int
	D        int // tree height bound used by the pipelined schedule
	Slots    int
	Slot     int // this vertex's skeleton slot, or -1
	Bound    int

	// Vec is the output: Vec[j] = the value seeded at skeleton vertex j
	// (Bound+1 when that vertex holds no value). After the run it is
	// identical at every node.
	Vec []int

	finished bool

	txUp   msgSkelUp
	txDown msgSkelDown
	rxUp   msgSkelUp
	rxDown msgSkelDown
}

// NewSkelRelayNode builds the program for one node; slot is -1 for
// non-skeleton vertices.
func NewSkelRelayNode(parent int, children []int, depth, d, slots, slot, bound int) *SkelRelayNode {
	s := &SkelRelayNode{
		Parent:   parent,
		Children: append([]int(nil), children...),
		Depth:    depth,
		D:        d,
		Slots:    slots,
		Slot:     slot,
		Bound:    bound,
		Vec:      make([]int, slots),
		rxUp:     msgSkelUp{Slots: slots, Bound: bound},
		rxDown:   msgSkelDown{Slots: slots, Bound: bound},
	}
	for j := range s.Vec {
		s.Vec[j] = skelNoVal(bound)
	}
	return s
}

// SkelSeed is the Reset params of a relay session: Value[v] is the value
// vertex v seeds into its own slot (ignored at non-skeleton vertices); -1
// means "no value" (the vertex was not reached within the hop budget).
type SkelSeed struct{ Value []int }

// ResetNode implements Resettable.
func (s *SkelRelayNode) ResetNode(v int, params any) {
	seed := -1
	switch p := params.(type) {
	case nil:
	case SkelSeed:
		seed = p.Value[v]
	default:
		badResetParams("SkelRelayNode", params)
	}
	for j := range s.Vec {
		s.Vec[j] = skelNoVal(s.Bound)
	}
	if s.Slot >= 0 && seed >= 0 {
		s.Vec[s.Slot] = seed
	}
	s.finished = false
}

// gatherEnd is the round by which the gather phase has fully drained into
// the root; the broadcast schedule is offset past it.
func (s *SkelRelayNode) gatherEnd() int { return s.D + s.Slots + 1 }

// total is the fixed duration of the whole relay.
func (s *SkelRelayNode) total() int { return 2 * (s.D + s.Slots + 1) }

// Send implements Node: one slot per round in each phase's pipelined
// window. Children's subtree minima for slot i arrive exactly one round
// before this node's upward transmission of slot i; the parent's global
// value arrives exactly one round before the downward retransmission.
func (s *SkelRelayNode) Send(env *Env, out *Outbox) {
	if s.Parent >= 0 {
		if i := env.Round - (s.D - s.Depth) - 1; i >= 0 && i < s.Slots {
			s.txUp = msgSkelUp{Slot: i, Val: s.Vec[i], Slots: s.Slots, Bound: s.Bound}
			out.Put(s.Parent, &s.txUp)
		}
	}
	if len(s.Children) > 0 {
		if i := env.Round - s.gatherEnd() - s.Depth - 1; i >= 0 && i < s.Slots {
			s.txDown = msgSkelDown{Slot: i, Val: s.Vec[i], Slots: s.Slots, Bound: s.Bound}
			out.Broadcast(s.Children, &s.txDown)
		}
	}
}

// Receive implements Node: gather messages min-combine into the slot (only
// subtree values ever arrive upward), broadcast messages overwrite it with
// the root's global value.
func (s *SkelRelayNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		switch in.Kind {
		case KindSkelUp:
			if in.Decode(env, &s.rxUp) != nil {
				continue
			}
			if s.rxUp.Val < s.Vec[s.rxUp.Slot] {
				s.Vec[s.rxUp.Slot] = s.rxUp.Val
			}
		case KindSkelDown:
			if in.Decode(env, &s.rxDown) != nil {
				continue
			}
			s.Vec[s.rxDown.Slot] = s.rxDown.Val
		}
	}
	if env.Round >= s.total() {
		s.finished = true
	}
}

// Done implements Node.
func (s *SkelRelayNode) Done() bool { return s.finished }

// NextWake implements Scheduled: the upward window [D-Depth+1, D-Depth+Slots]
// (non-root nodes), the downward window [gatherEnd+Depth+1,
// gatherEnd+Depth+Slots] (non-leaf nodes), and the final timer. Message
// arrivals wake the node regardless.
func (s *SkelRelayNode) NextWake(env *Env, round int) int {
	if s.finished {
		return NeverWake
	}
	next := s.total()
	if s.Parent >= 0 {
		if w := windowNext(round, s.D-s.Depth+1, s.Slots); w > 0 && w < next {
			next = w
		}
	}
	if len(s.Children) > 0 {
		if w := windowNext(round, s.gatherEnd()+s.Depth+1, s.Slots); w > 0 && w < next {
			next = w
		}
	}
	if next <= round {
		return round + 1
	}
	return next
}

// windowNext returns the smallest round after `round` inside the window of
// `width` rounds starting at `first`, or 0 when the window has passed.
func windowNext(round, first, width int) int {
	switch {
	case round+1 < first:
		return first
	case round+1 < first+width:
		return round + 1
	default:
		return 0
	}
}

// StateBits implements StateSizer: the slot vector plus the schedule
// constants. The oracle's per-node memory is Θ(|S| log n) bits — like the
// multi-source phase of the 3/2-approximation, this is the part of the
// follow-up algorithms that needs polynomial classical memory.
func (s *SkelRelayNode) StateBits() int { return (s.Slots + 4) * 64 }

// SkelOracle is a preprocessed skeleton distance oracle over one topology:
// the hop budget H, the skeleton S, and the per-vertex combine tables dsv.
// Build it once with NewSkelOracle (the init phase, charged to InitRounds)
// and evaluate any number of sources through SkelEvalSession.
type SkelOracle struct {
	topo     *Topology
	info     *PreInfo
	H        int
	Skeleton []int // slot -> vertex, distinct
	slotOf   []int // vertex -> slot, -1 for non-skeleton vertices
	bound    int

	// dsv[v][j] = min_i ( d_S(s_j, s_i) + d^H(s_i, v) ), clamped to skelInf.
	dsv [][]int

	// InitRounds is the CONGEST cost of building the oracle: the measured
	// rounds of the |S| H-hop relaxations plus the charged pipelined
	// gather/broadcast of the |S|^2 skeleton matrix through the leader
	// (2*(D + |S|^2 + 1) rounds at one matrix entry per tree edge per
	// round, the SourceMaxNode schedule with |S|^2 slots).
	InitRounds int
}

// NewSkelOracle runs the init phase: an H-hop truncated Bellman–Ford
// relaxation from every skeleton vertex, the Floyd–Warshall closure of the
// skeleton-to-skeleton H-hop distances at the leader, and the per-vertex
// combine tables.
func NewSkelOracle(topo *Topology, info *PreInfo, skeleton []int, h int, opts ...Option) (*SkelOracle, error) {
	n := topo.N()
	if h < 1 || h > n {
		return nil, fmt.Errorf("congest: skeleton hop budget %d out of [1, %d]", h, n)
	}
	if len(skeleton) == 0 || len(skeleton) > n {
		return nil, fmt.Errorf("congest: skeleton size %d out of [1, %d]", len(skeleton), n)
	}
	bound := topo.DistBound()
	if bound > skelMaxBound {
		return nil, fmt.Errorf("congest: distance bound %d exceeds the skeleton oracle's cap %d", bound, skelMaxBound)
	}
	o := &SkelOracle{
		topo:     topo,
		info:     info,
		H:        h,
		Skeleton: append([]int(nil), skeleton...),
		slotOf:   make([]int, n),
		bound:    bound,
	}
	for v := range o.slotOf {
		o.slotOf[v] = -1
	}
	for j, v := range o.Skeleton {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("congest: skeleton vertex %d out of range", v)
		}
		if o.slotOf[v] >= 0 {
			return nil, fmt.Errorf("congest: skeleton vertex %d listed twice", v)
		}
		o.slotOf[v] = j
	}

	// Phase 1: d^H(s_i, v) for every skeleton vertex, measured.
	s := len(o.Skeleton)
	hmat := make([][]int, s)
	for i := range hmat {
		hmat[i] = make([]int, n)
	}
	if err := o.runInitRelaxations(hmat, opts...); err != nil {
		return nil, err
	}

	// Phase 2: exact skeleton-to-skeleton distances — the Floyd–Warshall
	// closure of the H-hop skeleton matrix, a leader-local computation on
	// the gathered entries. Any shortest path between skeleton vertices
	// decomposes into segments of at most H hops between consecutive
	// skeleton vertices (the hitting property), each captured by d^H.
	ds := make([][]int, s)
	for i := range ds {
		ds[i] = make([]int, s)
		for j := range ds[i] {
			ds[i][j] = hmat[i][o.Skeleton[j]]
		}
		ds[i][i] = 0
	}
	for k := 0; k < s; k++ {
		for i := 0; i < s; i++ {
			viaK := ds[i][k]
			if viaK >= skelInf {
				continue
			}
			for j := 0; j < s; j++ {
				if d := viaK + ds[k][j]; d < ds[i][j] {
					ds[i][j] = d
				}
			}
		}
	}

	// Phase 3: the per-vertex combine tables, local arithmetic on values
	// every vertex already holds (its d^H to each skeleton vertex, learned
	// during phase 1) plus the broadcast closure matrix.
	o.dsv = make([][]int, n)
	for v := 0; v < n; v++ {
		row := make([]int, s)
		for j := 0; j < s; j++ {
			best := skelInf
			for i := 0; i < s; i++ {
				if ds[j][i] >= skelInf || hmat[i][v] >= skelInf {
					continue
				}
				if d := ds[j][i] + hmat[i][v]; d < best {
					best = d
				}
			}
			row[j] = best
		}
		o.dsv[v] = row
	}

	// The |S|^2 matrix entries are gathered to and re-broadcast from the
	// leader on the pipelined tree schedule — charged by formula, like the
	// setup broadcast of the optimization framework.
	o.InitRounds += 2 * (info.D + s*s + 1)
	return o, nil
}

// runInitRelaxations fills hmat[i] with the H-hop-bounded distances from
// skeleton vertex i (skelInf for vertices unreached within H hops) and adds
// the measured rounds of every relaxation to InitRounds.
func (o *SkelOracle) runInitRelaxations(hmat [][]int, opts ...Option) error {
	topo, n, h, bound := o.topo, o.topo.N(), o.H, o.bound
	ses := NewSession(topo, func(v int) Node {
		return NewWeightedSSSPNode(false, topo.NeighborWeights(v), bound, h)
	}, opts...)
	defer ses.Close()
	for i, src := range o.Skeleton {
		if err := ses.Reset(WeightedSource{Source: src}); err != nil {
			return err
		}
		if err := ses.Run(h + 4); err != nil {
			return fmt.Errorf("skeleton relaxation from %d: %w", src, err)
		}
		o.InitRounds += ses.Metrics().Rounds
		for v := 0; v < n; v++ {
			if d := ses.Node(v).(*WeightedSSSPNode).Dist; d < 0 {
				hmat[i][v] = skelInf
			} else {
				hmat[i][v] = d
			}
		}
	}
	return nil
}

// combineRow computes row[v] = min( d^H(u, v), min_j vec[j] + dsv[v][j] )
// for every vertex — each vertex's local combine of its own relaxation
// estimate, the relayed skeleton vector and its stored table. It fails when
// some vertex stays unreachable (the skeleton sample missed every window of
// its shortest path) or the best candidate overshoots the distance bound.
func (o *SkelOracle) combineRow(source int, dist, vec, row []int) error {
	noVal := skelNoVal(o.bound)
	for v, d := range dist {
		best := skelInf
		if d >= 0 {
			best = d
		}
		dsvV := o.dsv[v]
		for j, rel := range vec {
			if rel >= noVal || dsvV[j] >= skelInf {
				continue
			}
			if c := rel + dsvV[j]; c < best {
				best = c
			}
		}
		if best > o.bound {
			return fmt.Errorf("congest: vertex %d unreached by skeleton oracle from %d (sample too sparse for hop budget %d)", v, source, o.H)
		}
		row[v] = best
	}
	return nil
}

// relayDuration is the fixed round count of the relay phase.
func (o *SkelOracle) relayDuration() int { return 2 * (o.info.D + len(o.Skeleton) + 1) }

// SkelEvalSession evaluates the oracle for one source at a time: the
// weighted counterpart of WeightedEccSession with the n-1-round inner loop
// replaced by the oracle's H + relay schedule. Build once per context,
// Eval per Evaluation.
type SkelEvalSession struct {
	o     *SkelOracle
	bf    *Session
	relay *Session
	cc    treeAgg

	dist []int
	vec  *SkelRelayNode // the leader's relay program (holds the global vector)
	row  []int
}

// NewEvalSession builds the relaxation + relay + convergecast triple.
func (o *SkelOracle) NewEvalSession(opts ...Option) *SkelEvalSession {
	topo, info := o.topo, o.info
	n := topo.N()
	s := len(o.Skeleton)
	es := &SkelEvalSession{
		o: o,
		bf: NewSession(topo, func(v int) Node {
			return NewWeightedSSSPNode(false, topo.NeighborWeights(v), o.bound, o.H)
		}, opts...),
		relay: NewSession(topo, func(v int) Node {
			return NewSkelRelayNode(info.Parent[v], info.Children[v], info.Depth[v], info.D, s, o.slotOf[v], o.bound)
		}, opts...),
		cc:   newTreeAgg(topo, info, KindWMax, o.bound, "weighted convergecast", opts...),
		dist: make([]int, n),
		row:  make([]int, n),
	}
	es.vec = es.relay.Node(info.Leader).(*SkelRelayNode)
	return es
}

// Eval computes the weighted eccentricity of source through the oracle; when
// row is non-nil it is additionally filled with the full distance row
// d(source, v) — the value every vertex v holds locally after the combine.
func (es *SkelEvalSession) Eval(source int, row []int) (int, Metrics, error) {
	o := es.o
	var total Metrics
	if err := es.bf.Reset(WeightedSource{Source: source}); err != nil {
		return 0, total, err
	}
	if err := es.bf.Run(o.H + 4); err != nil {
		return 0, total, fmt.Errorf("skeleton relaxation: %w", err)
	}
	total.Add(es.bf.Metrics())
	for v := range es.dist {
		es.dist[v] = es.bf.Node(v).(*WeightedSSSPNode).Dist
	}
	if err := es.relay.Reset(SkelSeed{Value: es.dist}); err != nil {
		return 0, total, err
	}
	if err := es.relay.Run(o.relayDuration() + 4); err != nil {
		return 0, total, fmt.Errorf("skeleton relay: %w", err)
	}
	total.Add(es.relay.Metrics())
	if row == nil {
		row = es.row
	}
	if err := o.combineRow(source, es.dist, es.vec.Vec, row); err != nil {
		return 0, total, err
	}
	ecc, m, err := es.cc.run(row)
	if err != nil {
		return 0, total, err
	}
	total.Add(m)
	return ecc, total, nil
}

// Close releases the three sessions.
func (es *SkelEvalSession) Close() {
	es.bf.Close()
	es.relay.Close()
	es.cc.close()
}
