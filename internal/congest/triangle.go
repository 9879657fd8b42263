package congest

// Distributed triangle detection building blocks: the vertex-local triangle
// predicate is computed by the classical adjacency-probe protocol — every
// vertex announces its neighbor list, one id per round, and a vertex v that
// hears neighbor w announce x checks x against its own (locally known)
// adjacency — after which "v lies on a triangle" is a local flag. The probe
// runs for a fixed Delta = max-degree schedule with own-id padding, so its
// traffic and round count are input-independent; the quantum layer then
// searches or counts over the flags with one cheap convergecast Evaluation
// per input (internal/core.TriangleDetect / TriangleCount).

// msgAdj carries one adjacency announcement: "x is my neighbor". A vertex
// past the end of its neighbor list announces itself (a self-loop no
// receiver acts on), keeping the per-round traffic uniform.
type msgAdj struct{ ID int }

func (m *msgAdj) WireKind() Kind          { return KindAdj }
func (m *msgAdj) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgAdj) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgAdj) fields(n int) wireFields { return fields1(&m.ID, n) }

func init() {
	RegisterKind(KindAdj, "adj", func() WireMessage { return new(msgAdj) })
}

// TriangleProbeNode announces this vertex's adjacency list, one neighbor id
// per round for a fixed Duration (the maximum degree), and raises OnTriangle
// when some received announcement (w says "x is my neighbor") closes a
// triangle with an edge of its own (v adjacent to both w and x).
type TriangleProbeNode struct {
	Duration int

	// Output.
	OnTriangle bool

	finished bool
	tx, rx   msgAdj
}

// NewTriangleProbeNode builds the program for one node. duration is the
// network-wide maximum degree, known a priori like n.
func NewTriangleProbeNode(duration int) *TriangleProbeNode {
	return &TriangleProbeNode{Duration: duration}
}

// ResetNode implements Resettable.
func (t *TriangleProbeNode) ResetNode() {
	t.OnTriangle = false
	t.finished = false
}

// Send implements Node: in round r the vertex announces its (r-1)-th
// neighbor, or itself once its list is exhausted (uniform traffic).
func (t *TriangleProbeNode) Send(env *Env, out *Outbox) {
	if t.finished || env.Round > t.Duration {
		return
	}
	i := env.Round - 1
	if i < len(env.Neighbors) {
		t.tx.ID = env.Neighbors[i]
	} else {
		t.tx.ID = env.ID
	}
	out.Broadcast(env.Neighbors, &t.tx)
}

// Receive implements Node: an announcement x from neighbor w closes a
// triangle iff x is neither endpoint of the (v,w) edge and v is adjacent to
// x — a binary search in v's own sorted neighbor list, no extra messages.
func (t *TriangleProbeNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindAdj || in.Decode(env, &t.rx) != nil {
			continue
		}
		x := t.rx.ID
		if x == env.ID || x == in.From {
			continue
		}
		if neighborIndex(env.Neighbors, x) >= 0 {
			t.OnTriangle = true
		}
	}
	if env.Round >= t.Duration {
		t.finished = true
	}
}

// Done implements Node.
func (t *TriangleProbeNode) Done() bool { return t.finished }

// NextWake implements Scheduled: every vertex transmits every round of the
// fixed schedule.
func (t *TriangleProbeNode) NextWake(env *Env, round int) int {
	if t.finished {
		return NeverWake
	}
	return round + 1
}

// StateBits implements StateSizer: the flag and the round timer.
func (t *TriangleProbeNode) StateBits() int { return 2 * 64 }

// TriangleFlagsOn runs the adjacency-probe protocol once and returns the
// per-vertex triangle flags (flags[v] iff v lies on some triangle) with the
// measured metrics. The probe is input-free, so callers charge its rounds
// to initialization.
func TriangleFlagsOn(topo *Topology, opts ...Option) ([]bool, Metrics, error) {
	// The fixed probe schedule length: every vertex finishes announcing its
	// list within max-degree rounds (at least 1 so the empty graph still
	// terminates).
	duration := max(topo.maxDeg, 1)
	probe, m, err := runOnce(topo, func(v int) *TriangleProbeNode {
		return NewTriangleProbeNode(duration)
	}, duration+4, "triangle probe", opts...)
	if err != nil {
		return nil, m, err
	}
	flags := make([]bool, len(probe))
	for v, p := range probe {
		flags[v] = p.OnTriangle
	}
	return flags, m, nil
}

// TriangleSession is the reusable Evaluation of the triangle workloads:
// given the precomputed flags, Eval(u0) extracts u0's flag at the leader by
// one max convergecast (value 1 at u0 iff u0 lies on a triangle, 0
// elsewhere). The convergecast duration is tree-determined, so the round
// count never depends on u0.
type TriangleSession struct {
	cc    treeAgg
	flags []bool
	vals  []int
}

// NewTriangleSession builds the convergecast session on the tree described
// by info over the given per-vertex flags.
func NewTriangleSession(topo *Topology, info *PreInfo, flags []bool, opts ...Option) *TriangleSession {
	return &TriangleSession{
		cc:    newTreeAgg(topo, info, KindMax, 0, "triangle convergecast", opts...),
		flags: flags,
		vals:  make([]int, topo.N()),
	}
}

// Eval computes f(u0) = 1 iff u0 lies on a triangle.
func (ts *TriangleSession) Eval(u0 int) (int, Metrics, error) {
	for v := range ts.vals {
		ts.vals[v] = 0
	}
	if ts.flags[u0] {
		ts.vals[u0] = 1
	}
	return ts.cc.run(ts.vals)
}
