package congest

// Tree aggregation programs: convergecast of one value per vertex toward
// the root (Figure 2 Step 3: "the transmission is done bottom up on
// BFS(leader), and at each node only the maximum of received values is
// transmitted"; the Figure 3 counting probes do the same with a sum) and
// broadcast of a value from the root down the tree. Both run on a
// previously-built BFS tree and finish within height+1 rounds.

type (
	// msgAgg carries a partial aggregate up the tree. Its kind selects the
	// combine and the field list:
	//   - max: (value, witness); values are distances and similar counters
	//     bounded by 4n, the witness is a vertex id.
	//   - wmax: (value, witness) with values in [0, Bound], the weighted
	//     suite's distance range.
	//   - sum: one value of 2*BitsForID(n) bits, admitting every value of
	//     that width: wide enough for the counting convergecasts (sums of n
	//     indicator values) and for sums up to ~n^2 in general. The int32
	//     CSR keeps n below 2^31, so the bound 1<<(2*BitsForID(n)) fits an
	//     int.
	//   - cutsum: one value in [0, Bound], where Bound is the topology's
	//     total edge weight.
	// Bound and kind are configuration known a priori, never transmitted.
	msgAgg struct {
		Value   int
		Witness int
		Bound   int
		kind    Kind
	}
	// msgBcast carries the root's value down the tree. Broadcast values
	// (d, thresholds, vertex ids) are bounded by 4n.
	msgBcast struct{ Value int }
	// msgSlot carries one (slot, value) pair of a pipelined slot
	// convergecast. Its kind selects the field list:
	//   - srcmax: (source rank < n, subtree maximum < 2n).
	//   - skelup, skeldown: (slot < Slots, value < Bound+2), where Bound+1
	//     is skelNoVal, "no value within H hops".
	// Slots, Bound and kind are configuration known a priori (every node
	// knows |S| and the weight cap, like it knows n), never transmitted.
	msgSlot struct {
		Slot  int
		Val   int
		Slots int
		Bound int
		kind  Kind
	}
)

func (m *msgAgg) WireKind() Kind          { return m.kind }
func (m *msgAgg) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgAgg) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }

// fields lists the payload of m's kind. Any other kind gets a field that
// admits no value, so the message neither encodes nor decodes.
func (m *msgAgg) fields(n int) wireFields {
	switch m.kind {
	case KindMax:
		return fields2(&m.Value, 4*n+1, &m.Witness, n)
	case KindWMax:
		return fields2(&m.Value, m.Bound+1, &m.Witness, n)
	case KindSum:
		return fields1(&m.Value, 1<<(2*BitsForID(n)))
	case KindCutSum:
		return fields1(&m.Value, m.Bound+1)
	}
	return fields1(&m.Value, 0)
}

func (m *msgBcast) WireKind() Kind          { return KindBcast }
func (m *msgBcast) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgBcast) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgBcast) fields(n int) wireFields { return fields1(&m.Value, 4*n+1) }

func (m *msgSlot) WireKind() Kind          { return m.kind }
func (m *msgSlot) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgSlot) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }

// fields lists the payload of m's kind; like msgAgg, any other kind admits
// no value.
func (m *msgSlot) fields(n int) wireFields {
	switch m.kind {
	case KindSrcMax:
		return fields2(&m.Slot, n, &m.Val, 2*n)
	case KindSkelUp, KindSkelDown:
		return fields2(&m.Slot, m.Slots, &m.Val, m.Bound+2)
	}
	return fields1(&m.Slot, 0)
}

func init() {
	RegisterKind(KindMax, "max", func() WireMessage { return &msgAgg{kind: KindMax} })
	RegisterKind(KindWMax, "wmax", func() WireMessage { return &msgAgg{kind: KindWMax} })
	RegisterKind(KindSum, "sum", func() WireMessage { return &msgAgg{kind: KindSum} })
	RegisterKind(KindCutSum, "cutsum", func() WireMessage { return &msgAgg{kind: KindCutSum} })
	RegisterKind(KindBcast, "bcast", func() WireMessage { return new(msgBcast) })
	RegisterKind(KindSrcMax, "src-max", func() WireMessage { return &msgSlot{kind: KindSrcMax} })
	RegisterKind(KindSkelUp, "skel-up", func() WireMessage { return &msgSlot{kind: KindSkelUp} })
	RegisterKind(KindSkelDown, "skel-down", func() WireMessage { return &msgSlot{kind: KindSkelDown} })
}

// ConvergecastNode aggregates per-vertex values at the root of a tree. Each
// node waits for all of its children, then forwards the aggregate of its
// own value and theirs; only one O(log n)-bit message crosses each tree
// edge. The wire kind fixes the aggregate: KindMax and KindWMax keep the
// maximum with the smallest witness id, KindSum and KindCutSum the sum.
type ConvergecastNode struct {
	Parent  int
	Value   int
	Witness int // id associated with Value (e.g. the vertex achieving it)

	// Outputs (meaningful at the root): the subtree's aggregate and, for
	// the max kinds, its witness.
	Agg        int
	AggWitness int

	children int
	received int
	sent     bool
	msg      msgAgg // kind and Bound are configuration; one message serves both directions
}

// NewConvergecastNode builds the program for one node of a kind
// convergecast (KindMax, KindWMax, KindSum or KindCutSum). witness
// identifies where the value came from (often the node itself); bound is
// the value range [0, bound] of the wmax and cutsum kinds.
func NewConvergecastNode(kind Kind, parent int, children []int, value, witness, bound int) *ConvergecastNode {
	return &ConvergecastNode{
		Parent:     parent,
		Value:      value,
		Witness:    witness,
		Agg:        value,
		AggWitness: witness,
		children:   len(children),
		msg:        msgAgg{Bound: bound, kind: kind},
	}
}

// ResetNode implements Resettable: the aggregate restarts from the inputs
// Value and Witness.
func (c *ConvergecastNode) ResetNode() {
	c.Agg, c.AggWitness = c.Value, c.Witness
	c.received = 0
	c.sent = false
}

// Send implements Node.
func (c *ConvergecastNode) Send(env *Env, out *Outbox) {
	if c.sent || c.received < c.children {
		return
	}
	c.sent = true
	if c.Parent < 0 {
		return
	}
	c.msg.Value, c.msg.Witness = c.Agg, c.AggWitness
	out.Put(c.Parent, &c.msg)
}

// Receive implements Node.
func (c *ConvergecastNode) Receive(env *Env, inbox []Inbound) {
	sums := c.msg.kind == KindSum || c.msg.kind == KindCutSum
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != c.msg.kind || in.Decode(env, &c.msg) != nil {
			continue
		}
		c.received++
		switch {
		case sums:
			c.Agg += c.msg.Value
		case c.msg.Value > c.Agg || (c.msg.Value == c.Agg && c.msg.Witness < c.AggWitness):
			c.Agg, c.AggWitness = c.msg.Value, c.msg.Witness
		}
	}
}

// Done implements Node.
func (c *ConvergecastNode) Done() bool { return c.sent }

// NextWake implements Scheduled: a node transmits once, as soon as all of
// its children have reported (leaves in round 1); NextWake is asked after
// every report's Receive, so the last report schedules the transmission.
func (c *ConvergecastNode) NextWake(env *Env, round int) int {
	if !c.sent && c.received >= c.children {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer: value and aggregate, plus a witness
// pair for the max kinds and the bound for cutsum.
func (c *ConvergecastNode) StateBits() int {
	switch c.msg.kind {
	case KindSum:
		return 2 * 64
	case KindCutSum:
		return 3 * 64
	}
	return 4 * 64
}

// treeAgg is the phase runner of the tree convergecast rooted at root.
type treeAgg struct {
	phase[*ConvergecastNode]
	root int
}

// newTreeAgg builds the convergecast session of the given kind on the tree
// described by info, rooted at its leader; each vertex witnesses itself.
func newTreeAgg(topo *Topology, info *PreInfo, kind Kind, bound int, what string, opts ...Option) treeAgg {
	return treeAgg{
		phase: newPhase(topo, func(v int) *ConvergecastNode {
			return NewConvergecastNode(kind, info.Parent[v], info.Children[v], 0, v, bound)
		}, 4*topo.N()+16, what, opts...),
		root: info.Leader,
	}
}

// run aggregates values and returns the aggregate at the root with the
// run's Metrics.
func (a treeAgg) run(values []int) (int, Metrics, error) {
	for v, c := range a.Nodes() {
		c.Value = values[v]
	}
	m, err := a.exec()
	if err != nil {
		return 0, m, err
	}
	return a.Node(a.root).Agg, m, nil
}

// BroadcastNode distributes the root's value down a tree.
type BroadcastNode struct {
	Parent   int
	Children []int

	// Value is the input at the root and the output everywhere.
	Value int

	have bool
	sent bool

	tx, rx msgBcast
}

// NewBroadcastNode builds the program for one node; value is ignored except
// at the root.
func NewBroadcastNode(parent int, children []int, value int) *BroadcastNode {
	b := &BroadcastNode{Parent: parent, Children: append([]int(nil), children...), Value: value}
	if parent < 0 {
		b.have = true
	}
	return b
}

// ResetNode implements Resettable. Value is the input as well as the
// output: the caller writes the next run's value at the root before Run.
func (b *BroadcastNode) ResetNode() {
	b.have = b.Parent < 0
	b.sent = false
}

// Send implements Node.
func (b *BroadcastNode) Send(env *Env, out *Outbox) {
	if !b.have || b.sent {
		return
	}
	b.sent = true
	b.tx.Value = b.Value
	out.Broadcast(b.Children, &b.tx)
}

// Receive implements Node.
func (b *BroadcastNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindBcast || in.Decode(env, &b.rx) != nil {
			continue
		}
		b.Value = b.rx.Value
		b.have = true
	}
}

// Done implements Node.
func (b *BroadcastNode) Done() bool { return b.sent }

// NextWake implements Scheduled: the root transmits in round 1; every
// other node forwards once, the round after the value reaches it.
func (b *BroadcastNode) NextWake(env *Env, round int) int {
	if b.sent {
		return NeverWake
	}
	if b.have {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer.
func (b *BroadcastNode) StateBits() int { return 64 }

// treeBcast is the phase runner of the broadcast down the tree rooted at
// root.
type treeBcast struct {
	phase[*BroadcastNode]
	root int
}

// newTreeBcast builds the broadcast session on the tree described by info,
// rooted at its leader.
func newTreeBcast(topo *Topology, info *PreInfo, what string, opts ...Option) treeBcast {
	return treeBcast{
		phase: newPhase(topo, func(v int) *BroadcastNode {
			return NewBroadcastNode(info.Parent[v], info.Children[v], 0)
		}, 4*topo.N()+16, what, opts...),
		root: info.Leader,
	}
}

// run broadcasts value from the root and returns the run's Metrics.
func (b treeBcast) run(value int) (Metrics, error) {
	b.Node(b.root).Value = value
	return b.exec()
}

// SlotConvergecastNode is the pipelined per-slot convergecast: every node
// holds a vector of Slots values and the tree combines them slot by slot
// toward the root, one slot per tree edge per round. A node at depth k
// sends slot i to its parent in round D - k + i + 1, one round after its
// children's subtree values for slot i arrived. The up kind fixes the
// combine: KindSrcMax keeps the maximum (the per-source eccentricity
// convergecast of Figure 3, following [HPRW14]), KindSkelUp the minimum
// (the skeleton oracle's gather). Built with the down kind KindSkelDown,
// the node then broadcasts the root's vector back down: a node at depth k
// forwards slot i in round gatherEnd + k + i + 1, where gatherEnd = D +
// Slots + 1 is the round by which the gather has drained into the root.
// The schedule is fixed and input-independent: D + Slots + 1 rounds, twice
// that with the down phase.
type SlotConvergecastNode struct {
	// Vec is the output: after the gather the root's Vec[i] combines slot
	// i over the whole tree, and after the down phase every node holds the
	// root's vector.
	Vec []int

	// Own is the input value of the vertex's own slot (-1: none); ResetNode
	// seeds it.
	Own int

	parent   int
	children []int
	depth, d int
	in       []int // per-slot inputs (-1: none), or nil
	slot     int   // the vertex's own slot, or -1
	up, down Kind  // down is KindSkelDown, or kindInvalid for a gather only
	finished bool
	parentAt int32   // the parent's position in the vertex's neighbor row; -1 until the first up send finds it
	msg      msgSlot // Slots and Bound are configuration; one message serves both phases
}

// NewSlotConvergecastNode builds the program for vertex v of the tree info
// describes, with up kind KindSrcMax or KindSkelUp and down kind
// KindSkelDown or kindInvalid (no down phase). The vertex's inputs are the
// per-slot values in (-1 for none; nil for none at all) and Own, the value
// of its own slot (-1 for none); bound is the skel kinds' value range
// [0, bound].
func NewSlotConvergecastNode(info *PreInfo, v int, up, down Kind, slots, bound, slot int, in []int) *SlotConvergecastNode {
	s := &SlotConvergecastNode{
		Vec:      make([]int, slots),
		Own:      -1,
		parent:   info.Parent[v],
		children: info.Children[v],
		depth:    info.Depth[v],
		d:        info.D,
		in:       in,
		slot:     slot,
		up:       up,
		down:     down,
		parentAt: -1,
		msg:      msgSlot{Slots: slots, Bound: bound},
	}
	s.ResetNode()
	return s
}

// ResetNode implements Resettable. It installs the inputs: every slot
// starts at the combine's identity (0 for max over distances, skelNoVal for
// min), overwritten by the per-slot inputs and the own-slot value that are
// present.
func (s *SlotConvergecastNode) ResetNode() {
	none := 0
	if s.up == KindSkelUp {
		none = skelNoVal(s.msg.Bound)
	}
	for i := range s.Vec {
		s.Vec[i] = none
		if s.in != nil && s.in[i] >= 0 {
			s.Vec[i] = s.in[i]
		}
	}
	if s.slot >= 0 && s.Own >= 0 {
		s.Vec[s.slot] = s.Own
	}
	s.finished = false
}

// gatherEnd is the round by which the gather phase has fully drained into
// the root; the down schedule is offset past it.
func (s *SlotConvergecastNode) gatherEnd() int { return s.d + len(s.Vec) + 1 }

// total is the fixed duration of the whole run.
func (s *SlotConvergecastNode) total() int {
	if s.down != kindInvalid {
		return 2 * s.gatherEnd()
	}
	return s.gatherEnd()
}

// Send implements Node: one slot per round in each phase's window. The
// parent's row position is looked up once and kept across runs (the
// topology does not change); putAt checks it against the row.
func (s *SlotConvergecastNode) Send(env *Env, out *Outbox) {
	if i := env.Round - (s.d - s.depth) - 1; s.parent >= 0 && i >= 0 && i < len(s.Vec) {
		if s.parentAt < 0 {
			s.parentAt = int32(neighborIndex(env.Neighbors, s.parent))
		}
		s.msg.kind, s.msg.Slot, s.msg.Val = s.up, i, s.Vec[i]
		out.putAt(int(s.parentAt), s.parent, &s.msg)
	}
	if i := env.Round - s.gatherEnd() - s.depth - 1; s.down != kindInvalid && i >= 0 && i < len(s.Vec) {
		s.msg.kind, s.msg.Slot, s.msg.Val = s.down, i, s.Vec[i]
		out.Broadcast(s.children, &s.msg)
	}
}

// Receive implements Node: gathered values combine into their slot (only
// subtree values ever arrive upward), down values overwrite it with the
// root's.
func (s *SlotConvergecastNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != s.up && in.Kind != s.down {
			continue
		}
		s.msg.kind = in.Kind
		if in.Decode(env, &s.msg) != nil || s.msg.Slot >= len(s.Vec) {
			continue
		}
		cur := &s.Vec[s.msg.Slot]
		switch {
		case in.Kind == s.down:
			*cur = s.msg.Val
		case s.up == KindSrcMax && s.msg.Val > *cur, s.up == KindSkelUp && s.msg.Val < *cur:
			*cur = s.msg.Val
		}
	}
	if env.Round >= s.total() {
		s.finished = true
	}
}

// Done implements Node.
func (s *SlotConvergecastNode) Done() bool { return s.finished }

// NextWake implements Scheduled: the up window [D-depth+1, D-depth+Slots]
// (non-root nodes), the down window [gatherEnd+depth+1,
// gatherEnd+depth+Slots] (non-leaf nodes with a down phase), and the final
// timer. An arrival outside them runs only the Receive half: the node
// transmits inside its windows alone.
func (s *SlotConvergecastNode) NextWake(env *Env, round int) int {
	if s.finished {
		return NeverWake
	}
	next := s.total()
	if s.parent >= 0 {
		if w := windowNext(round, s.d-s.depth+1, len(s.Vec)); w > 0 && w < next {
			next = w
		}
	}
	if s.down != kindInvalid && len(s.children) > 0 {
		if w := windowNext(round, s.gatherEnd()+s.depth+1, len(s.Vec)); w > 0 && w < next {
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

// StateBits implements StateSizer: with a down phase, the slot vector plus
// the schedule constants. The skeleton oracle's per-node memory is
// Θ(|S| log n) bits — like the multi-source phase of the
// 3/2-approximation, the part of the follow-up algorithms that needs
// polynomial classical memory. The gather-only src-max use reports 0,
// which never raises Metrics.MaxStateBits: its vector is the multi-source
// BFS output, which SSPNode does not meter either.
func (s *SlotConvergecastNode) StateBits() int {
	if s.down == kindInvalid {
		return 0
	}
	return (len(s.Vec) + 4) * 64
}
