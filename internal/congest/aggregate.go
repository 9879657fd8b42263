package congest

// Tree aggregation programs: convergecast of a maximum toward the root
// (Figure 2 Step 3: "the transmission is done bottom up on BFS(leader), and
// at each node only the maximum of received values is transmitted") and
// broadcast of a value from the root down the tree. Both run on a
// previously-built BFS tree and finish within height+1 rounds.

type (
	// msgMax carries a partial maximum (value, witness id) up the tree.
	// Values are distances and similar counters bounded by 4n (width
	// BitsForID(4n+1)); the witness is a vertex id (width BitsForID(n)).
	msgMax struct {
		Value   int
		Witness int
	}
	// msgBcast carries the root's value down the tree. Broadcast values
	// (d, thresholds, vertex ids) are bounded by 4n.
	msgBcast struct{ Value int }
)

func (m *msgMax) WireKind() Kind          { return KindMax }
func (m *msgMax) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgMax) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgMax) fields(n int) wireFields { return fields2(&m.Value, 4*n+1, &m.Witness, n) }

func (m *msgBcast) WireKind() Kind          { return KindBcast }
func (m *msgBcast) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgBcast) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgBcast) fields(n int) wireFields { return fields1(&m.Value, 4*n+1) }

func init() {
	RegisterKind(KindMax, "max", func() WireMessage { return new(msgMax) })
	RegisterKind(KindBcast, "bcast", func() WireMessage { return new(msgBcast) })
}

// ConvergecastMaxNode aggregates the maximum of per-node input values at
// the root. Each node waits for all of its children, then forwards the max
// of its own value and theirs; only one O(log n)-bit message crosses each
// tree edge.
type ConvergecastMaxNode struct {
	Parent   int
	Children []int
	Value    int
	Witness  int // id associated with Value (e.g. the vertex achieving it)

	// Outputs (meaningful at the root).
	Max        int
	MaxWitness int

	received int
	sent     bool
	isRoot   bool

	tx, rx msgMax
}

// NewConvergecastMaxNode builds the program for one node. witness
// identifies where the value came from (often the node itself).
func NewConvergecastMaxNode(parent int, children []int, value, witness int) *ConvergecastMaxNode {
	return &ConvergecastMaxNode{
		Parent:     parent,
		Children:   append([]int(nil), children...),
		Value:      value,
		Witness:    witness,
		Max:        value,
		MaxWitness: witness,
		isRoot:     parent < 0,
	}
}

// MaxInputs is the Reset params of a max-convergecast session: the
// per-vertex input values of the next execution and, optionally, their
// witnesses (nil: each vertex witnesses itself, like ConvergecastMax).
type MaxInputs struct {
	Values    []int
	Witnesses []int
}

// ResetNode implements Resettable.
func (c *ConvergecastMaxNode) ResetNode(v int, params any) {
	switch p := params.(type) {
	case nil:
	case MaxInputs:
		c.Value = p.Values[v]
		if p.Witnesses != nil {
			c.Witness = p.Witnesses[v]
		} else {
			c.Witness = v
		}
	default:
		badResetParams("ConvergecastMaxNode", params)
	}
	c.Max, c.MaxWitness = c.Value, c.Witness
	c.received = 0
	c.sent = false
}

// Send implements Node.
func (c *ConvergecastMaxNode) Send(env *Env, out *Outbox) {
	if c.sent || c.received < len(c.Children) {
		return
	}
	c.sent = true
	if c.isRoot {
		return
	}
	c.tx = msgMax{Value: c.Max, Witness: c.MaxWitness}
	out.Put(c.Parent, &c.tx)
}

// Receive implements Node.
func (c *ConvergecastMaxNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindMax || in.Decode(env, &c.rx) != nil {
			continue
		}
		c.received++
		if c.rx.Value > c.Max || (c.rx.Value == c.Max && c.rx.Witness < c.MaxWitness) {
			c.Max = c.rx.Value
			c.MaxWitness = c.rx.Witness
		}
	}
}

// Done implements Node.
func (c *ConvergecastMaxNode) Done() bool { return c.sent }

// NextWake implements Scheduled: a node transmits once, as soon as all of
// its children have reported (leaves in round 1); child reports are
// messages and schedule the node by themselves.
func (c *ConvergecastMaxNode) NextWake(env *Env, round int) int {
	if c.sent {
		return NeverWake
	}
	if c.received >= len(c.Children) {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer.
func (c *ConvergecastMaxNode) StateBits() int { return 4 * 64 }

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

// BcastValue is the Reset params of a broadcast session: the value the root
// distributes in the next execution.
type BcastValue struct{ Value int }

// ResetNode implements Resettable. Like the constructor, the value is
// installed at every vertex but only the root's copy matters.
func (b *BroadcastNode) ResetNode(v int, params any) {
	switch p := params.(type) {
	case nil:
	case BcastValue:
		b.Value = p.Value
	default:
		badResetParams("BroadcastNode", params)
	}
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
