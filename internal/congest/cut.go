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
// convergecast of the tallies to the leader (the cutsum kind of
// ConvergecastNode, aggregate.go). All three phases have
// input-independent round counts, the property the quantum layer needs.

import "fmt"

// msgSide carries one side bit of the mark flood (1 = inside the subtree of
// the current evaluation's root, 0 = outside).
type msgSide struct{ Marked int }

func (m *msgSide) WireKind() Kind          { return KindSide }
func (m *msgSide) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgSide) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgSide) fields(n int) wireFields { return fields1(&m.Marked, 2) }

func init() {
	RegisterKind(KindSide, "side", func() WireMessage { return new(msgSide) })
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

// ResetNode implements Resettable. Marked is the input as well as an
// output: the caller marks the next run's subtree root (and unmarks every
// other vertex) before Run.
func (c *CutMarkNode) ResetNode() {
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
	mark *Session[*CutMarkNode]
	sum  treeAgg
	topo *Topology

	duration int
	vals     []int
}

// NewCutSession builds the mark-flood + sum-convergecast pair on the tree
// described by info.
func NewCutSession(topo *Topology, info *PreInfo, opts ...Option) *CutSession {
	duration := info.D + 1
	bound := topo.TotalWeight()
	return &CutSession{
		mark: NewSession(topo, func(v int) *CutMarkNode {
			return NewCutMarkNode(info.Parent[v], topo.Degree(v), duration)
		}, opts...),
		sum:      newTreeAgg(topo, info, KindCutSum, bound, "cut convergecast", opts...),
		topo:     topo,
		duration: duration,
		vals:     make([]int, topo.N()),
	}
}

// Eval computes the crossing weight of the tree cut rooted at u0.
func (cs *CutSession) Eval(u0 int) (int, Metrics, error) {
	var total Metrics
	for v, mn := range cs.mark.Nodes() {
		mn.Marked = v == u0
	}
	if err := cs.mark.Run(cs.duration + 4); err != nil {
		return 0, total, fmt.Errorf("cut mark flood: %w", err)
	}
	total.Add(cs.mark.Metrics())
	// Local tally: vertex v charges each crossing edge to its smaller-id
	// endpoint, so every crossing edge contributes exactly once.
	for v, mn := range cs.mark.Nodes() {
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
	cut, m, err := cs.sum.run(cs.vals)
	if err != nil {
		return 0, total, err
	}
	total.Add(m)
	return cut, total, nil
}
