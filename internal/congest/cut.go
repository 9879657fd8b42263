package congest

// Tree-cut building blocks: the Evaluation of the minimum-tree-cut workload
// (internal/core.MinTreeCut). For an input vertex u0, the network computes
// the total weight of the edges crossing the bipartition
// (subtree(u0), rest) induced by the preprocessing BFS tree, in three fixed
// phases: a mark flood down the tree (every vertex re-broadcasts its
// current side bit each round, D+1 rounds, so marks reach depth D and the
// final round doubles as the side exchange), a local crossing-weight
// tally (each vertex charges the edges to differently-sided higher-id
// neighbors — every crossing edge counted exactly once), and a sum
// convergecast of the tallies to the leader. All three phases have
// input-independent round counts, the property the quantum layer needs.

import "fmt"

type (
	// msgSide carries one side bit of the mark flood (1 = inside the
	// subtree of the current evaluation's root, 0 = outside).
	msgSide struct{ Marked int }
	// msgCutSum carries a partial crossing-weight sum up the tree. Weighted
	// cut sums range over [0, Bound] where Bound is the topology's total
	// edge weight — wider than the unweighted msgSum field — so the width
	// is Bound-parameterized configuration like msgWDist, never transmitted.
	msgCutSum struct {
		Sum   int
		Bound int
	}
)

func (m *msgSide) WireKind() Kind          { return KindSide }
func (m *msgSide) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgSide) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgSide) fields(n int) wireFields { return fields1(&m.Marked, 2) }

func (m *msgCutSum) WireKind() Kind          { return KindCutSum }
func (m *msgCutSum) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgCutSum) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgCutSum) fields(n int) wireFields { return fields1(&m.Sum, m.Bound+1) }

func init() {
	RegisterKind(KindSide, "side", func() WireMessage { return new(msgSide) })
	RegisterKind(KindCutSum, "cutsum", func() WireMessage { return new(msgCutSum) })
}

// CutMarkNode runs the mark flood: the root starts marked, every vertex
// broadcasts its current side bit each round, and a vertex becomes marked
// when its tree parent reports marked. After Duration = D+1 rounds every
// vertex knows its own final side and the final side of every neighbor
// (sides stabilize within D rounds; the last broadcast is the exchange).
type CutMarkNode struct {
	Parent   int
	Duration int

	// Outputs.
	Marked       bool
	NeighborSide []bool // aligned with env.Neighbors; valid after the run

	finished bool
	tx, rx   msgSide
}

// NewCutMarkNode builds the program for one node; duration is D+1 where D
// is the tree depth bound (PreInfo.D).
func NewCutMarkNode(parent, degree, duration int) *CutMarkNode {
	return &CutMarkNode{
		Parent:       parent,
		Duration:     duration,
		NeighborSide: make([]bool, degree),
	}
}

// CutRoot is the Reset params of a mark-flood session: the subtree root of
// the next execution.
type CutRoot struct{ Root int }

// ResetNode implements Resettable.
func (c *CutMarkNode) ResetNode(v int, params any) {
	switch p := params.(type) {
	case nil:
		c.Marked = false
	case CutRoot:
		c.Marked = v == p.Root
	default:
		badResetParams("CutMarkNode", params)
	}
	clear(c.NeighborSide)
	c.finished = false
}

// Send implements Node: broadcast the current side bit, every round of the
// fixed schedule.
func (c *CutMarkNode) Send(env *Env, out *Outbox) {
	if c.finished || env.Round > c.Duration {
		return
	}
	c.tx.Marked = 0
	if c.Marked {
		c.tx.Marked = 1
	}
	out.Broadcast(env.Neighbors, &c.tx)
}

// Receive implements Node: the parent's bit propagates the mark; every
// neighbor's bit overwrites the recorded side, so after the final round the
// records hold the final sides.
func (c *CutMarkNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindSide || in.Decode(env, &c.rx) != nil {
			continue
		}
		marked := c.rx.Marked == 1
		j := neighborIndex(env.Neighbors, in.From)
		if j >= 0 {
			c.NeighborSide[j] = marked
		}
		if in.From == c.Parent && marked {
			c.Marked = true
		}
	}
	if env.Round >= c.Duration {
		c.finished = true
	}
}

// Done implements Node.
func (c *CutMarkNode) Done() bool { return c.finished }

// NextWake implements Scheduled: every vertex transmits every round of the
// fixed schedule.
func (c *CutMarkNode) NextWake(env *Env, round int) int {
	if c.finished {
		return NeverWake
	}
	return round + 1
}

// StateBits implements StateSizer: the side bit, the per-neighbor side
// records and the round timer.
func (c *CutMarkNode) StateBits() int { return 64 + len(c.NeighborSide) }

// neighborIndex locates id in the ascending neighbor list (binary search).
func neighborIndex(neighbors []int, id int) int {
	lo, hi := 0, len(neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if neighbors[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(neighbors) && neighbors[lo] == id {
		return lo
	}
	return -1
}

// CutSumNode convergecasts the sum of Bound-ranged values toward the tree
// root — the weighted counterpart of ConvergecastSumNode, carrying values
// up to the topology's total edge weight instead of 2*BitsForID(n) bits.
type CutSumNode struct {
	Parent   int
	Children []int
	Value    int
	Bound    int

	// Output (meaningful at the root).
	Sum int

	received int
	sent     bool

	tx, rx msgCutSum
}

// NewCutSumNode builds the program for one node.
func NewCutSumNode(parent int, children []int, value, bound int) *CutSumNode {
	return &CutSumNode{
		Parent:   parent,
		Children: append([]int(nil), children...),
		Value:    value,
		Bound:    bound,
		Sum:      value,
		rx:       msgCutSum{Bound: bound},
	}
}

// CutSumInputs is the Reset params of a cut-sum session: the per-vertex
// crossing-weight tallies of the next execution.
type CutSumInputs struct{ Values []int }

// ResetNode implements Resettable.
func (c *CutSumNode) ResetNode(v int, params any) {
	switch p := params.(type) {
	case nil:
	case CutSumInputs:
		c.Value = p.Values[v]
	default:
		badResetParams("CutSumNode", params)
	}
	c.Sum = c.Value
	c.received = 0
	c.sent = false
}

// Send implements Node.
func (c *CutSumNode) Send(env *Env, out *Outbox) {
	if c.sent || c.received < len(c.Children) {
		return
	}
	c.sent = true
	if c.Parent < 0 {
		return
	}
	c.tx = msgCutSum{Sum: c.Sum, Bound: c.Bound}
	out.Put(c.Parent, &c.tx)
}

// Receive implements Node.
func (c *CutSumNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindCutSum || in.Decode(env, &c.rx) != nil {
			continue
		}
		c.received++
		c.Sum += c.rx.Sum
	}
}

// Done implements Node.
func (c *CutSumNode) Done() bool { return c.sent }

// NextWake implements Scheduled: transmit once, as soon as every child has
// reported (leaves in round 1).
func (c *CutSumNode) NextWake(env *Env, round int) int {
	if c.sent {
		return NeverWake
	}
	if c.received >= len(c.Children) {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer.
func (c *CutSumNode) StateBits() int { return 3 * 64 }

// TotalWeight returns the sum of all edge weights (each edge once) — the
// range bound of cut sums.
func (t *Topology) TotalWeight() int {
	total := 0
	for v := 0; v < t.n; v++ {
		ws := t.NeighborWeights(v)
		for i, nb := range t.Neighbors(v) {
			if v < nb {
				if ws == nil {
					total++
				} else {
					total += ws[i]
				}
			}
		}
	}
	return total
}

// CutSession is the reusable Evaluation of the minimum-tree-cut workload:
// Eval(u0) computes the total weight of the edges crossing
// (subtree(u0), rest) on the preprocessing tree. Mark flood and sum
// convergecast both run fixed schedules, so the round count never depends
// on u0.
type CutSession struct {
	mark   *Session
	sum    *Session
	topo   *Topology
	leader int

	duration int
	vals     []int
}

// NewCutSession builds the mark-flood + sum-convergecast pair on the tree
// described by info.
func NewCutSession(topo *Topology, info *PreInfo, opts ...Option) *CutSession {
	duration := info.D + 1
	bound := topo.TotalWeight()
	return &CutSession{
		mark: NewSession(topo, func(v int) Node {
			return NewCutMarkNode(info.Parent[v], topo.Degree(v), duration)
		}, opts...),
		sum: NewSession(topo, func(v int) Node {
			return NewCutSumNode(info.Parent[v], info.Children[v], 0, bound)
		}, opts...),
		topo:     topo,
		leader:   info.Leader,
		duration: duration,
		vals:     make([]int, topo.N()),
	}
}

// Eval computes the crossing weight of the tree cut rooted at u0.
func (cs *CutSession) Eval(u0 int) (int, Metrics, error) {
	var total Metrics
	if err := cs.mark.Reset(CutRoot{Root: u0}); err != nil {
		return 0, total, err
	}
	if err := cs.mark.Run(cs.duration + 4); err != nil {
		return 0, total, fmt.Errorf("cut mark flood: %w", err)
	}
	total.Add(cs.mark.Metrics())
	// Local tally: vertex v charges each crossing edge to its smaller-id
	// endpoint, so every crossing edge contributes exactly once.
	for v := range cs.vals {
		mn := cs.mark.Node(v).(*CutMarkNode)
		ws := cs.topo.NeighborWeights(v)
		tally := 0
		for i, nb := range cs.topo.Neighbors(v) {
			if v < nb && mn.NeighborSide[i] != mn.Marked {
				if ws == nil {
					tally++
				} else {
					tally += ws[i]
				}
			}
		}
		cs.vals[v] = tally
	}
	if err := cs.sum.Reset(CutSumInputs{Values: cs.vals}); err != nil {
		return 0, total, err
	}
	if err := cs.sum.Run(4*len(cs.vals) + 16); err != nil {
		return 0, total, fmt.Errorf("cut convergecast: %w", err)
	}
	total.Add(cs.sum.Metrics())
	return cs.sum.Node(cs.leader).(*CutSumNode).Sum, total, nil
}

// Close releases both sessions' engines.
func (cs *CutSession) Close() {
	cs.mark.Close()
	cs.sum.Close()
}
