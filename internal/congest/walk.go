package congest

// This file implements Step 1 of the paper's Figure 2: a token performing a
// depth-first traversal of BFS(leader) starting at a designated vertex u0,
// for a fixed number of steps L, assigning tau'(v) = first-visit step index
// to every vertex reached. When the traversal completes the full tour it
// restarts from the leader (the paper's "if it reaches the end of the DFS,
// it starts again from leader"); the restart is continuous because the tour
// ends at the root.
//
// The routing is the classic stateless Euler-tour rule: a token arriving at
// v from its tree parent descends into v's first child; a token arriving
// from child c moves to the child after c, or to the parent when c was the
// last child. Children are ordered by ascending id, matching
// graph.BFSTree.EulerTour, so the distributed walk reproduces the reference
// tour exactly.

// msgToken carries the walk's step counter. Walks of the 3/2-approximation
// run for up to 2(tStar + d) <= 4n - 4 steps, so the field width is
// BitsForID(4n+1) — the pre-wire-format declared size BitsForID(2n+1)
// undercounted exactly those walks, which the encoded accounting now makes
// impossible.
type msgToken struct{ Step int }

func (m *msgToken) WireKind() Kind          { return KindToken }
func (m *msgToken) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgToken) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgToken) fields(n int) wireFields { return fields1(&m.Step, 4*n+1) }

func init() {
	RegisterKind(KindToken, "token", func() WireMessage { return new(msgToken) })
}

// TokenWalkNode runs the walk at one node.
type TokenWalkNode struct {
	// Static configuration (computed by earlier phases).
	Parent   int   // tree parent, -1 at the root
	Children []int // tree children in ascending id order; may be filtered
	Root     int
	Start    int // u0: the vertex where the walk begins; a session's per-run input
	Steps    int // L: number of token moves to perform

	// Output.
	Tau int // first-visit step index, -1 if never visited

	holding  bool // token currently here, to be forwarded next Send
	arrived  int  // step counter when the token arrived
	from     int  // -1 if walk start or restart at root, else sender
	finished bool

	tx, rx msgToken
}

// NewTokenWalkNode builds the walk program for one node.
func NewTokenWalkNode(parent int, children []int, root, start, steps int) *TokenWalkNode {
	return &TokenWalkNode{
		Parent:   parent,
		Children: append([]int(nil), children...),
		Root:     root,
		Start:    start,
		Steps:    steps,
		Tau:      -1,
		from:     -1,
	}
}

// ResetNode implements Resettable: the program returns to its constructed
// state, the walk beginning at Start.
func (t *TokenWalkNode) ResetNode() {
	t.Tau = -1
	t.holding = false
	t.arrived = 0
	t.from = -1
	t.finished = false
}

// Send implements Node.
func (t *TokenWalkNode) Send(env *Env, out *Outbox) {
	if env.ID == t.Start && env.Round == 1 {
		// The walk begins here: this counts as the first visit, step 0.
		t.holding = true
		t.arrived = 0
		t.from = -1
		t.Tau = 0
	}
	if !t.holding || t.arrived >= t.Steps {
		return
	}
	next := t.nextHop(env)
	t.holding = false
	if next == env.ID {
		// Restart from leader: the token "stays" while the tour wraps.
		// This only happens at the root; re-enter holding state with the
		// restart semantics (as if arriving top-down) without consuming
		// a communication round: descend immediately into first child.
		t.from = -1
		if len(t.Children) == 0 {
			// Degenerate single-vertex tree: walk cannot move.
			return
		}
		next = t.Children[0]
	}
	t.tx.Step = t.arrived + 1
	out.Put(next, &t.tx)
}

// nextHop applies the Euler-tour routing rule based on where the token
// came from.
func (t *TokenWalkNode) nextHop(env *Env) int {
	if t.from == -1 || t.from == t.Parent {
		// Top-down arrival (or walk start / restart): descend first child.
		if len(t.Children) > 0 {
			return t.Children[0]
		}
		if t.Parent >= 0 {
			return t.Parent
		}
		return env.ID // root with no children
	}
	// Bottom-up arrival from child t.from.
	for i, c := range t.Children {
		if c == t.from {
			if i+1 < len(t.Children) {
				return t.Children[i+1]
			}
			if t.Parent >= 0 {
				return t.Parent
			}
			return env.ID // tour complete at root: restart
		}
	}
	// The sender was not a child: must be the parent (top-down).
	if len(t.Children) > 0 {
		return t.Children[0]
	}
	return t.Parent
}

// Receive implements Node.
func (t *TokenWalkNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindToken || in.Decode(env, &t.rx) != nil {
			continue
		}
		t.holding = true
		t.arrived = t.rx.Step
		t.from = in.From
		if t.Tau == -1 {
			if in.From == t.Parent {
				// First top-down arrival: the DFS-numbering visit.
				t.Tau = t.rx.Step
			} else if t.Parent < 0 && len(t.Children) > 0 && in.From == t.Children[len(t.Children)-1] {
				// The root's tau-visit is the tour completion (arrival
				// from its last child), which is where the wrapped walk
				// restarts: position 0 of the reference tour.
				t.Tau = t.rx.Step
			}
		}
	}
	if env.Round >= t.Steps {
		t.finished = true
	}
}

// Done implements Node.
func (t *TokenWalkNode) Done() bool { return t.finished }

// NextWake implements Scheduled: only the token holder acts — the start
// vertex in round 1, then whoever holds the token forwards it next round.
// Every other vertex sleeps until round Steps, where the fixed-duration
// timer finishes the walk (so under frontier scheduling the per-round work
// is the token's single hop, not n vertices).
func (t *TokenWalkNode) NextWake(env *Env, round int) int {
	if t.finished {
		return NeverWake
	}
	if t.holding && t.arrived < t.Steps {
		return round + 1 // forward the token
	}
	if env.ID == t.Start && round == 0 {
		return 1 // the walk begins here
	}
	if t.Steps > round {
		return t.Steps // the finished timer fires in round Steps
	}
	return round + 1
}

// StateBits implements StateSizer: step counter, tau, from pointer.
func (t *TokenWalkNode) StateBits() int { return 4 * 64 }
