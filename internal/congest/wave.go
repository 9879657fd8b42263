package congest

import "fmt"

// This file implements Step 2 of the paper's Figure 2: every vertex
// v in S starts a BFS wave at round 2*tau'(v); waves are pipelined so that
// they never collide (paper Lemmas 2-4). Each node v tracks
//
//	tv — the tau' of the last wave processed (-1 initially), and
//	dv — the maximum distance-from-initiator over all waves seen,
//
// so that after the process dv = max_{u in S} d(u, v), and the global
// maximum of dv equals max_{u in S} ecc(u).
//
// The implementation asserts the paper's Lemma 4 at runtime: if two
// distinct messages survive the tv filter in the same round, the run fails.
// Passing tests therefore certify the no-congestion claim — over real
// encoded bit counts — not just assume it.

// msgWave is a wave message (tau', delta): "the wave started by the vertex
// with tau'-number Tau has traveled Delta hops". Two counters of
// BitsForID(4n+1) bits each (tau' ranges over walk windows of up to 4n-4
// steps, delta over distances < n). The increment convention differs
// cosmetically from Figure 2: the sender adds 1 when transmitting, so a
// received Delta always equals d(initiator, receiver); Figure 2 has the
// receiver broadcast delta+1 instead. The invariants (first arrival carries
// the true distance, dv = max distance over processed waves) are identical.
type msgWave struct {
	Tau   int
	Delta int
}

func (m *msgWave) WireKind() Kind          { return KindWave }
func (m *msgWave) MarshalWire(w *Writer)   { m.fields(w.N).marshal(w) }
func (m *msgWave) UnmarshalWire(r *Reader) { m.fields(r.N).unmarshal(r) }
func (m *msgWave) fields(n int) wireFields {
	b := 4*n + 1
	return fields2(&m.Tau, b, &m.Delta, b)
}

func init() {
	RegisterKind(KindWave, "wave", func() WireMessage { return new(msgWave) })
}

// WaveNode runs the Figure 2 Step 2 process at one node.
type WaveNode struct {
	// Configuration; InS and TauPrime are a session's per-run inputs.
	InS      bool // whether this node belongs to S
	TauPrime int  // tau'(v), meaningful when InS
	Duration int  // total rounds of the process (6d in Figure 2)

	// Outputs.
	TV int // tv of Figure 2
	DV int // dv of Figure 2

	// Violation records a breach of the paper's ordering invariants
	// (Lemmas 2-4). It stays nil on every valid schedule; composite
	// algorithms and tests fail the run if it is set.
	Violation error

	pending  *msgWave // wave to broadcast next Send
	finished bool

	buffered msgWave // storage for pending
	tx, rx   msgWave
}

// NewWaveNode builds the wave program for one node. tauPrime is ignored
// unless inS is true.
func NewWaveNode(inS bool, tauPrime, duration int) *WaveNode {
	return &WaveNode{InS: inS, TauPrime: tauPrime, Duration: duration, TV: -1}
}

// ResetNode implements Resettable: the program returns to its constructed
// state, with the membership and tau' held in InS and TauPrime.
func (w *WaveNode) ResetNode() {
	w.TV = -1
	w.DV = 0
	w.Violation = nil
	w.pending = nil
	w.finished = false
}

// Send implements Node.
func (w *WaveNode) Send(env *Env, out *Outbox) {
	// Figure 2 Step 2(2): initiate own wave exactly at (relative) round
	// 2*tau'(v). Rounds here are 1-based, so the wave with tau' = 0 starts
	// in round 1: initiation round = 2*tau' + 1.
	if w.InS && env.Round == 2*w.TauPrime+1 {
		if w.TauPrime < w.TV && w.Violation == nil {
			// The ordering lemmas guarantee earlier waves have smaller
			// tau'; seeing a larger tv here would mean congestion.
			w.Violation = fmt.Errorf("congest: wave ordering violated at node %d: tv=%d >= own tau'=%d",
				env.ID, w.TV, w.TauPrime)
		}
		w.TV = w.TauPrime
		w.buffered = msgWave{Tau: w.TauPrime, Delta: 0}
		w.pending = &w.buffered
	}
	if w.pending == nil {
		return
	}
	w.tx = msgWave{Tau: w.pending.Tau, Delta: w.pending.Delta + 1}
	w.pending = nil
	out.Broadcast(env.Neighbors, &w.tx)
}

// Receive implements Node. It applies Figure 2 Step 2(3): disregard stale
// waves, keep at most one fresh message (asserting they are all equal),
// update tv and dv, and schedule the re-broadcast.
func (w *WaveNode) Receive(env *Env, inbox []Inbound) {
	var kept *msgWave
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != KindWave || in.Decode(env, &w.rx) != nil {
			continue
		}
		m := w.rx
		if m.Tau <= w.TV {
			continue // Step 3(a): stale wave
		}
		if kept == nil {
			w.buffered = m
			kept = &w.buffered
			continue
		}
		if (kept.Tau != m.Tau || kept.Delta != m.Delta) && w.Violation == nil {
			// Lemma 4 violation: two distinct fresh messages in one round.
			w.Violation = fmt.Errorf("congest: Lemma 4 violated at node %d round %d: (%d,%d) vs (%d,%d)",
				env.ID, env.Round, kept.Tau, kept.Delta, m.Tau, m.Delta)
		}
	}
	if kept != nil {
		w.TV = kept.Tau
		if kept.Delta > w.DV {
			w.DV = kept.Delta
		}
		w.pending = kept
	}
	if env.Round >= w.Duration {
		w.finished = true
		w.pending = nil
	}
}

// Done implements Node.
func (w *WaveNode) Done() bool { return w.finished }

// NextWake implements Scheduled: a wave node acts spontaneously only at
// its own initiation round 2*tau'+1 (members of S) and at the Duration
// timer; a re-broadcast is scheduled here too (Receive sets pending, and
// NextWake, asked right after, answers the following round).
func (w *WaveNode) NextWake(env *Env, round int) int {
	if w.finished {
		return NeverWake
	}
	if w.pending != nil {
		return round + 1 // re-broadcast the kept wave
	}
	next := w.Duration // the finished timer fires in the Receive of that round
	if w.InS {
		if init := 2*w.TauPrime + 1; init > round && init < next {
			next = init
		}
	}
	if next <= round {
		return round + 1
	}
	return next
}

// StateBits implements StateSizer: tv, dv and one buffered message — the
// O(log n) space claim of Proposition 4.
func (w *WaveNode) StateBits() int {
	b := 2 * 64
	if w.pending != nil {
		b += 2 * 64
	}
	return b
}
