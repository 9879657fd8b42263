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
// down: the SlotConvergecastNode of aggregate.go with kinds
// KindSkelUp/KindSkelDown), and a weighted max convergecast — for
// Θ(H + D + |S|) rounds instead of n-1, with
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
// one field list msgSlot declares for the skel kinds.

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
	// round, the SlotConvergecastNode schedule with |S|^2 slots).
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

	// Phase 1: d^H(s_i, v) for every skeleton vertex (skelInf for vertices
	// unreached within H hops), each relaxation's rounds measured.
	s := len(o.Skeleton)
	hmat := make([][]int, s)
	r := newRelaxation(topo, h, "", opts...) // each run's error prefix names its source
	for i, src := range o.Skeleton {
		r.what = fmt.Sprintf("skeleton relaxation from %d", src)
		dist, m, err := r.run(src)
		if err != nil {
			return nil, err
		}
		o.InitRounds += m.Rounds
		hmat[i] = make([]int, n)
		for v, d := range dist {
			if d < 0 {
				d = skelInf
			}
			hmat[i][v] = d
		}
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
// Eval per Evaluation. Eval returns the Metrics of every run it executed,
// the failing run included.
type SkelEvalSession struct {
	o     *SkelOracle
	bf    relaxation
	relay phase[*SlotConvergecastNode]
	cc    treeAgg
	row   []int
}

// NewEvalSession builds the relaxation + relay + convergecast triple.
func (o *SkelOracle) NewEvalSession(opts ...Option) *SkelEvalSession {
	topo, info := o.topo, o.info
	n := topo.N()
	s := len(o.Skeleton)
	return &SkelEvalSession{
		o:  o,
		bf: newRelaxation(topo, o.H, "skeleton relaxation", opts...),
		relay: newPhase(topo, func(v int) *SlotConvergecastNode {
			return NewSlotConvergecastNode(info, v, KindSkelUp, KindSkelDown, s, o.bound, o.slotOf[v], nil)
		}, o.relayDuration()+4, "skeleton relay", opts...),
		cc:  newTreeAgg(topo, info, KindWMax, o.bound, "weighted convergecast", opts...),
		row: make([]int, n),
	}
}

// Eval computes the weighted eccentricity of source through the oracle; when
// row is non-nil it is additionally filled with the full distance row
// d(source, v) — the value every vertex v holds locally after the combine.
func (es *SkelEvalSession) Eval(source int, row []int) (int, Metrics, error) {
	o := es.o
	dist, total, err := es.bf.run(source)
	if err != nil {
		return 0, total, err
	}
	relay := es.relay.Nodes()
	for v, d := range dist {
		relay[v].Own = d
	}
	m, err := es.relay.exec()
	total.Add(m)
	if err != nil {
		return 0, total, err
	}
	if row == nil {
		row = es.row
	}
	if err := o.combineRow(source, dist, relay[o.info.Leader].Vec, row); err != nil {
		return 0, total, err
	}
	ecc, m, err := es.cc.run(row)
	total.Add(m)
	return ecc, total, err
}
