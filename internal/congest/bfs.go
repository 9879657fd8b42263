package congest

// This file implements the classical procedures of Section 3's
// "Initialization": the distributed BFS-tree construction of Figure 1
// (augmented with child discovery) and the convergecast that computes
// ecc(root) at the root.

// Wire payloads. Each type lists its payload fields once (fields, see
// wire.go); the codec, the single-word fast path and the width are derived
// from that list, and the engine charges the encoded length (DESIGN.md,
// "Wire format").
type (
	// msgActivate is the Figure 1 activation message carrying the
	// sender's distance to the root (also reused by the max-id flood of
	// leader election, so the field ranges over [0, n)).
	msgActivate struct{ Dist int }
	// msgChild tells the receiver "you are my BFS parent". No payload:
	// the kind tag alone carries the information.
	msgChild struct{}
	// msgEccReport carries the maximum root-distance in the sender's
	// subtree toward the root.
	msgEccReport struct{ Max int }
)

func (m *msgActivate) WireKind() Kind          { return KindActivate }
func (m *msgActivate) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgActivate) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgActivate) fields(n int) wireFields { return fields1(&m.Dist, n) }

func (m *msgChild) WireKind() Kind          { return KindChild }
func (m *msgChild) MarshalWire(w *Writer)   {}
func (m *msgChild) UnmarshalWire(r *Reader) {}
func (m *msgChild) fields(n int) wireFields { return wireFields{} }

func (m *msgEccReport) WireKind() Kind          { return KindEccReport }
func (m *msgEccReport) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgEccReport) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgEccReport) fields(n int) wireFields { return fields1(&m.Max, n) }

func init() {
	RegisterKind(KindActivate, "activate", func() WireMessage { return new(msgActivate) })
	RegisterKind(KindChild, "child", func() WireMessage { return new(msgChild) })
	RegisterKind(KindEccReport, "ecc-report", func() WireMessage { return new(msgEccReport) })
}

// BFSNode runs the Figure 1 BFS construction from a fixed root, augmented
// with (a) child notification, so every node learns its tree children, and
// (b) an event-driven convergecast of the maximum depth, so the root learns
// ecc(root). Per-node core state (parent, distance, subtree max) is O(log n)
// bits; the child set costs one bit per incident edge, the standard
// port-local bookkeeping every tree aggregation needs.
type BFSNode struct {
	Root int

	// Outputs.
	Dist     int
	Parent   int
	Children []int
	Ecc      int // meaningful at the root once done

	activated      bool
	activationSent bool
	childNotified  bool
	childrenFinal  bool
	reported       bool
	received       int // child reports in
	reportMax      int // largest child report (0 before any)
	done           bool

	tx struct {
		activate msgActivate
		child    msgChild
		ecc      msgEccReport
	}
	rx struct {
		activate msgActivate
		ecc      msgEccReport
	}
}

// NewBFSNode returns the program for one node.
func NewBFSNode(root int) *BFSNode {
	return &BFSNode{Root: root, Dist: -1, Parent: -1}
}

// ResetNode implements Resettable. The Children slice is dropped (not
// truncated): the previous run's output may have escaped into a PreInfo,
// and a session must never mutate results it already handed out.
func (b *BFSNode) ResetNode() {
	b.Dist, b.Parent = -1, -1
	b.Children = nil
	b.Ecc = 0
	b.activated = false
	b.activationSent = false
	b.childNotified = false
	b.childrenFinal = false
	b.reported = false
	b.received, b.reportMax = 0, 0
	b.done = false
}

// Send implements Node.
func (b *BFSNode) Send(env *Env, out *Outbox) {
	if env.ID == b.Root && !b.activated {
		b.activated = true
		b.Dist = 0
	}
	if b.activated && !b.activationSent {
		b.activationSent = true
		b.tx.activate.Dist = b.Dist
		out.Broadcast(env.Neighbors, &b.tx.activate)
		if b.Parent >= 0 && !b.childNotified {
			b.childNotified = true
			out.Put(b.Parent, &b.tx.child)
		}
	}
	if b.readyToReport() {
		b.reported = true
		maxDepth := b.subtreeMax()
		if env.ID == b.Root {
			b.Ecc = maxDepth
			b.done = true
		} else {
			b.tx.ecc.Max = maxDepth
			out.Put(b.Parent, &b.tx.ecc)
			b.done = true
		}
	}
}

func (b *BFSNode) readyToReport() bool {
	if !b.childrenFinal || b.reported {
		return false
	}
	return b.received == len(b.Children)
}

func (b *BFSNode) subtreeMax() int { return max(b.Dist, b.reportMax) }

// Receive implements Node.
func (b *BFSNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		switch in.Kind {
		case KindActivate:
			if in.Decode(env, &b.rx.activate) != nil {
				continue
			}
			if !b.activated {
				b.activated = true
				b.Dist = b.rx.activate.Dist + 1
				b.Parent = in.From // smallest id first: inbox sorted by sender
			}
		case KindChild:
			b.Children = append(b.Children, in.From)
		case KindEccReport:
			if in.Decode(env, &b.rx.ecc) != nil {
				continue
			}
			b.received++
			b.reportMax = max(b.reportMax, b.rx.ecc.Max)
		}
	}
	// A node activated at the end of round r receives child notifications
	// exactly at the end of round r+2 (children activate at r+1, notify at
	// r+2). After that the child set is final.
	if b.activated && !b.childrenFinal && env.Round >= b.Dist+2 {
		b.childrenFinal = true
	}
}

// Done implements Node.
func (b *BFSNode) Done() bool { return b.done }

// NextWake implements Scheduled. A BFS node acts spontaneously in exactly
// three situations: the root self-activates (round 1), an activated node
// broadcasts once, and the child set becomes final by the round-(Dist+2)
// timer — after which the node reports as soon as the last child report is
// in (NextWake, asked after every report's Receive, then answers round+1).
func (b *BFSNode) NextWake(env *Env, round int) int {
	if b.done {
		return NeverWake
	}
	if !b.activated {
		if env.ID == b.Root {
			return round + 1 // self-activation in the next Send
		}
		return NeverWake // activation arrives as a message
	}
	if !b.activationSent {
		return round + 1
	}
	if !b.childrenFinal {
		if w := b.Dist + 2; w > round {
			return w // the children-final timer fires in that round's Receive
		}
		return round + 1
	}
	if !b.reported && b.received == len(b.Children) {
		return round + 1 // report in the next Send
	}
	return NeverWake // waiting for child reports
}

// StateBits reports the O(log n)-bit core state (parent, distance, subtree
// max) plus one bit per child flag.
func (b *BFSNode) StateBits() int {
	return 3*64 + len(b.Children) + b.received*64
}

// LeaderElectNode floods the maximum node id. After global quiescence every
// node's Leader field holds the maximum id in the network. Termination is
// detected by the simulator's quiescence check, which stands in for the
// standard O(D)-round termination detection the paper assumes.
type LeaderElectNode struct {
	Leader  int
	pending bool
	started bool

	tx, rx msgActivate
}

// NewLeaderElectNode returns the program for one node.
func NewLeaderElectNode() *LeaderElectNode {
	return &LeaderElectNode{Leader: -1}
}

// ResetNode implements Resettable.
func (l *LeaderElectNode) ResetNode() {
	l.Leader = -1
	l.pending = false
	l.started = false
}

// Send implements Node.
func (l *LeaderElectNode) Send(env *Env, out *Outbox) {
	if !l.started {
		l.started = true
		l.Leader = env.ID
		l.pending = true
	}
	if !l.pending {
		return
	}
	l.pending = false
	l.tx.Dist = l.Leader
	out.Broadcast(env.Neighbors, &l.tx)
}

// Receive implements Node.
func (l *LeaderElectNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindActivate || in.Decode(env, &l.rx) != nil {
			continue
		}
		if l.rx.Dist > l.Leader {
			l.Leader = l.rx.Dist
			l.pending = true
		}
	}
}

// Done implements Node.
func (l *LeaderElectNode) Done() bool { return l.started && !l.pending }

// NextWake implements Scheduled: every node floods its own id in round 1;
// afterwards it only re-broadcasts improvements, which arrive as messages.
func (l *LeaderElectNode) NextWake(env *Env, round int) int {
	if !l.started || l.pending {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer.
func (l *LeaderElectNode) StateBits() int { return 64 }
