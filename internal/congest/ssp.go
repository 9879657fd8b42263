package congest

import "sort"

// Programs used by the 3/2-approximation preparation (Figure 3 of the
// paper, following Algorithm 1 of [HPRW14]): nearest-member flooding and
// pipelined multi-source shortest paths from the set R. The per-source
// maximum convergecast that turns those distances into eccentricities is
// the src-max kind of SlotConvergecastNode, and the counting convergecasts
// are the sum kind of ConvergecastNode (both in aggregate.go).
//
// Message sizes are not declared anywhere in this file: every cost below is
// the encoded wire length of the typed messages (the pre-wire-format code
// carried hand-written constants like 2*BitsForID(2*env.N) here, which the
// engine trusted blindly).

type (
	// msgNear carries (distance to nearest member, member id). Distances
	// travel pre-incremented, so the field covers [0, 2n).
	msgNear struct {
		Dist int
		Src  int
	}
	// msgPair is one (source rank, distance) pair of the pipelined
	// multi-source BFS; ranks are < n, distances pre-incremented < 2n.
	msgPair struct {
		Src  int
		Dist int
	}
)

func (m *msgNear) WireKind() Kind          { return KindNear }
func (m *msgNear) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgNear) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgNear) fields(n int) wireFields { return fields2(&m.Dist, 2*n, &m.Src, n) }

func (m *msgPair) WireKind() Kind          { return KindPair }
func (m *msgPair) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgPair) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgPair) fields(n int) wireFields { return fields2(&m.Src, n, &m.Dist, 2*n) }

func init() {
	RegisterKind(KindNear, "near", func() WireMessage { return new(msgNear) })
	RegisterKind(KindPair, "pair", func() WireMessage { return new(msgPair) })
}

// MinFloodNode computes, at every node, the distance to the nearest member
// of a vertex set and the id of that member (the p(v) of Figure 3 Step 2).
// Members start a wave at distance 0; nodes re-broadcast whenever their
// best (distance, id) improves. O(D) rounds, one message per edge per
// round.
type MinFloodNode struct {
	Member bool

	// Outputs.
	Dist int // distance to nearest member (-1 if none exist)
	Src  int // its id (-1 if none)

	pending bool
	started bool

	tx, rx msgNear
}

// NewMinFloodNode builds the program for one node.
func NewMinFloodNode(member bool) *MinFloodNode {
	return &MinFloodNode{Member: member, Dist: -1, Src: -1}
}

// ResetNode implements Resettable.
func (m *MinFloodNode) ResetNode() {
	m.Dist, m.Src = -1, -1
	m.pending = false
	m.started = false
}

// Send implements Node.
func (m *MinFloodNode) Send(env *Env, out *Outbox) {
	if !m.started {
		m.started = true
		if m.Member {
			m.Dist, m.Src = 0, env.ID
			m.pending = true
		}
	}
	if !m.pending {
		return
	}
	m.pending = false
	m.tx = msgNear{Dist: m.Dist + 1, Src: m.Src}
	out.Broadcast(env.Neighbors, &m.tx)
}

// Receive implements Node.
func (m *MinFloodNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindNear || in.Decode(env, &m.rx) != nil {
			continue
		}
		p := m.rx
		if m.Dist == -1 || p.Dist < m.Dist || (p.Dist == m.Dist && p.Src < m.Src) {
			m.Dist, m.Src = p.Dist, p.Src
			m.pending = true
		}
	}
}

// Done implements Node.
func (m *MinFloodNode) Done() bool { return m.started && !m.pending }

// NextWake implements Scheduled: every node runs round 1 (members seed the
// flood, everyone flips started); afterwards only improvements — which
// arrive as messages — are re-broadcast.
func (m *MinFloodNode) NextWake(env *Env, round int) int {
	if !m.started || m.pending {
		return round + 1
	}
	return NeverWake
}

// StateBits implements StateSizer.
func (m *MinFloodNode) StateBits() int { return 2 * 64 }

// SSPNode runs the pipelined multi-source BFS of [HPRW14]/[LP13]: every
// node learns its distance to each of the k ranked sources. Each node
// forwards at most one new (source, distance) pair per round, smallest
// (distance, source) first; the standard pipelining argument delivers all
// pairs within k + ecc rounds. Per-node memory is O(k log n) bits — this
// is the part of the 3/2-approximation that the paper notes requires
// polynomial classical memory (the quantum phase does not).
type SSPNode struct {
	Rank     int // source rank in [0,k), or -1
	Sources  int // k
	Duration int

	Dist []int // output: Dist[rank] = distance to that source, -1 if unseen

	queue    []msgPair // pending pairs, kept sorted by (Dist, Src)
	finished bool

	tx, rx msgPair
}

// NewSSPNode builds the program for one node; rank is -1 for non-sources.
func NewSSPNode(rank, sources, duration int) *SSPNode {
	n := &SSPNode{Rank: rank, Sources: sources, Duration: duration}
	n.seed()
	return n
}

// ResetNode implements Resettable.
func (s *SSPNode) ResetNode() {
	s.queue = s.queue[:0]
	s.finished = false
	s.seed()
}

// seed installs a fresh Dist and queues the node's own source. Dist is
// reallocated, not cleared: the previous run's output escapes into the
// per-source max convergecast, and a session must never mutate results it
// already handed out.
func (s *SSPNode) seed() {
	s.Dist = make([]int, s.Sources)
	for i := range s.Dist {
		s.Dist[i] = -1
	}
	if s.Rank >= 0 {
		s.Dist[s.Rank] = 0
		s.queue = append(s.queue, msgPair{Src: s.Rank, Dist: 0})
	}
}

// Send implements Node.
func (s *SSPNode) Send(env *Env, out *Outbox) {
	if len(s.queue) == 0 {
		return
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	s.tx = msgPair{Src: p.Src, Dist: p.Dist + 1}
	out.Broadcast(env.Neighbors, &s.tx)
}

// Receive implements Node.
func (s *SSPNode) Receive(env *Env, inbox []Inbound) {
	updated := false
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindPair || in.Decode(env, &s.rx) != nil {
			continue
		}
		p := s.rx
		if p.Src < len(s.Dist) && (s.Dist[p.Src] < 0 || p.Dist < s.Dist[p.Src]) {
			s.Dist[p.Src] = p.Dist
			s.enqueue(p)
			updated = true
		}
	}
	if updated {
		sort.Slice(s.queue, func(i, j int) bool {
			if s.queue[i].Dist != s.queue[j].Dist {
				return s.queue[i].Dist < s.queue[j].Dist
			}
			return s.queue[i].Src < s.queue[j].Src
		})
	}
	if env.Round >= s.Duration {
		s.finished = true
		s.queue = nil
	}
}

func (s *SSPNode) enqueue(p msgPair) {
	// Drop any stale queued pair for the same source.
	for i := range s.queue {
		if s.queue[i].Src == p.Src {
			s.queue[i] = p
			return
		}
	}
	s.queue = append(s.queue, p)
}

// Done implements Node.
func (s *SSPNode) Done() bool { return s.finished }

// NextWake implements Scheduled: a node transmits while its pair queue is
// non-empty (sources start in round 1) and finishes at the Duration timer;
// new pairs arrive as messages.
func (s *SSPNode) NextWake(env *Env, round int) int {
	if s.finished {
		return NeverWake
	}
	if len(s.queue) > 0 {
		return round + 1
	}
	if s.Duration > round {
		return s.Duration
	}
	return round + 1
}
