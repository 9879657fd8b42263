package congest

// This file implements the frontier scheduler: Run's round executor, which
// executes, each round, only the vertices that can possibly act — the
// active frontier — instead of all n. Every program in the Figure 2
// pipeline (BFS waves, token walks, the wave flood, Bellman–Ford) touches a
// thin frontier of vertices per round, so executing only that frontier
// makes wall-clock scale with the total work the algorithm performs rather
// than with n x rounds.
//
// # The frontier invariant
//
// A vertex is executed in round r if and only if at least one of:
//
//  1. its program scheduled round r through the Scheduled contract
//     (NextWake, asked after every execution of the vertex) — a pending
//     re-broadcast or reply after a reception, a wave initiation at round
//     2*tau'+1, a fixed-duration timer firing, the next step of a
//     pipelined schedule;
//  2. its program does not implement the contract at all — the
//     conservative always-active default, under which the vertex runs
//     every round exactly as in RunReference, so custom user programs
//     written against the facade keep working unchanged.
//
// Message delivery is independent of the frontier: a message sent in round
// r is received in round r by its target whether or not the target was
// scheduled (the receive half runs over frontier ∪ receivers). A reception
// does not by itself schedule the receiver again: after its Receive the
// engine asks NextWake, and the answer alone decides its next execution.
//
// The contract a Scheduled program must uphold is exactly: whenever the
// scheduler would skip the vertex, running its Send and Receive (with an
// empty inbox) in RunReference would emit nothing and change no state.
// In particular NextWake must answer round+1 whenever the vertex's next
// Send would emit or change state, including right after a reception.
// Under that contract the frontier execution is bit-identical to
// RunReference by construction: skipped work is work that provably does
// nothing. The scheduler-equivalence tests assert this across the whole
// program suite and session reuse.
//
// # Representation: hierarchical bitsets and one wake heap
//
// The frontier, its accumulator and the receive set are bitsets
// (bitset.go): a one-bit-per-vertex word layer under a one-bit-per-word
// summary layer.
// Building, deduplicating and iterating the frontier is O(active/64 +
// n/4096) — insertion dedupes in O(1), iteration chases set summary bits
// with bits.TrailingZeros64, and there is no per-round sorting and no
// steady-state allocation at all. Two bitsets double-buffer the rounds:
// `cur` is the frontier being executed, `nxt` accumulates next round's
// (the wakes due next round); buildFrontier is a pointer swap plus the
// heap-due and always-on inserts. A third, `rcv`, holds the current
// round's receivers between the claim pass and the receive iteration,
// which consumes it.
//
// Later wakes wait in one wake queue: a min-heap of round-keyed vertex
// buckets (wakeBucket). Bucketing makes the common bulk pattern (every
// vertex registers the same timer round) O(1) per vertex on both the
// register and the drain side. Wake registrations are epoch-stamped
// (wake[v] = epoch<<32|round), so resetting a persistent engine between
// Session executions is one epoch increment, not an O(n) wipe.
//
// # Determinism
//
// The frontier is a deterministic function of the run history: receivers
// are determined by the (deterministic) sends, self-wakes by program state,
// and the always-active set by the program types. The engine runs the
// frontier's senders in ascending order into one Outbox, so each
// receiver's chain is already in the canonical order RunReference
// delivers — ascending sender, emission order within a sender — the
// observer replays the one log in that order, and the reported error is
// the smallest failing sender's. Outputs are bit-identical to
// RunReference.
//
// # Quiescence and idle-round accounting
//
// The engine tracks the number of not-Done vertices incrementally (a
// vertex's Done can only change in a round that executes it), so quiescence
// is detected without RunReference's O(n) per-round scan. When the
// frontier is empty but self-wakes are pending, every round up to the next
// wake would execute as an empty round in RunReference; the scheduler
// skips them in O(1) and accounts them identically — Metrics.Rounds
// advances over the gap and Metrics.DroppedRounds counts each skipped
// round, exactly as if they had been executed empty. An empty frontier
// with no pending wake and not-Done vertices can never quiesce; the run
// fails with the same error and metrics RunReference produces at
// maxRounds.

import (
	"fmt"
	"math/bits"
)

// NeverWake is the NextWake return value meaning "message-driven": the
// vertex needs no execution until a message arrives.
const NeverWake = 0

// Scheduled is the optional activity contract a node program implements to
// benefit from frontier scheduling. The engine calls NextWake after the
// program is constructed or reset (round = 0) and after every round that
// executes the vertex; env identifies the vertex (ID, N, Neighbors — its
// Round field equals round) and round is the round that just completed.
//
// The return value is the next round at which the vertex must be executed
// even if no message arrives before then: round+1 to run next round, a
// larger value to sleep until a scheduled action (values <= round are
// clamped to round+1), or NeverWake when the vertex is purely
// message-driven until further notice. A delivered message is received in
// the round it is sent, but it does not schedule its receiver for the
// following round: NextWake is asked after that Receive too, so it must
// answer round+1 whenever the vertex's next Send would emit or change
// state — a reply or re-broadcast the message made pending included.
//
// Contract: if NextWake answers NeverWake (or a round later than r), then
// executing the vertex at round r with an empty inbox must emit nothing
// and change no state — that is what makes skipping it invisible.
// Programs that do not implement Scheduled are conservatively executed
// every round, exactly as RunReference executes them.
type Scheduled interface {
	NextWake(env *Env, round int) int
}

// wakeBucket groups pending self-wakes that share a target round: the
// registrations wakeVs[off:end] of the engine's arena. Programs
// overwhelmingly register wakes in runs of the same round (a
// fixed-duration timer registers the deadline for every vertex, a
// pipelined schedule the next stage), so bucketing makes both sides cheap:
// registration appends to the open bucket in O(1), and draining a due
// bucket is O(1) per vertex — no per-entry heap sift-downs, which at
// n=256k used to cost an O(n log n) storm in the round every timer fires.
//
// Bucket storage is an append-only arena: only the newest (open) bucket
// grows and it is always the arena tail, so closing a bucket just freezes
// its end offset. Nothing is freed mid-run — a reset truncates the arena —
// so steady-state executions allocate nothing and there is no arena-size
// churn.
type wakeBucket struct {
	round    int32
	off, end int32 // wakeVs[off:end]; the open bucket's end is the arena tail
}

// noBucket marks an empty open-bucket slot.
const noBucket = int32(-1)

// frontierState is the engine's per-run frontier bookkeeping. Everything
// is allocated once (newFrontierState) and recycled across rounds and —
// via reset — across the executions of a persistent Session engine, so
// steady-state rounds and re-run Evaluations allocate nothing: the bitsets
// are fixed arrays, the heap and arena are kept at capacity, and the epoch
// stamps make the wake array reusable without wiping it.
type frontierState struct {
	alwaysOn []int32 // vertices without the Scheduled contract, ascending

	cur *bitset // the frontier executing the current round
	nxt *bitset // accumulator for the next round's frontier
	rcv *bitset // this round's receivers; empty outside receive

	curCount int // |cur|
	nxtCount int // |nxt|

	epoch uint64   // current execution's stamp epoch (see wake)
	wake  []uint64 // wake[v] = epoch<<32|round of v's live registration

	heap   []wakeBucket // min-heap of closed buckets, by round
	open   wakeBucket   // the bucket currently receiving appends
	wakeVs []int32      // append-only registration arena

	done    []bool // last observed Done() per vertex
	notDone int

	preMax     int  // max initial StateBits over vertices outside frontier(1)
	preSampled bool // preMax computed (at the first frontier build)
}

func newFrontierState(n int, nodes []Node) *frontierState {
	fr := &frontierState{
		cur:  newBitset(n),
		nxt:  newBitset(n),
		rcv:  newBitset(n),
		wake: make([]uint64, n),
		open: wakeBucket{round: noBucket},
		done: make([]bool, n),
	}
	// The always-active set is fixed by the program types, so it is
	// collected once per engine. The Scheduled and StateSizer assertions
	// themselves are not tabulated: the hot paths assert them on the node
	// they have already loaded, about 2 ns per execution each, where two
	// n-long interface tables would cost 32 B per vertex.
	for v, nd := range nodes {
		if _, ok := nd.(Scheduled); !ok {
			fr.alwaysOn = append(fr.alwaysOn, int32(v))
		}
	}
	return fr
}

// stamp is the wake-array encoding of a live registration for round wk in
// the current epoch; stampNone marks "no live registration" this epoch.
// Entries from earlier epochs never match either, which is what makes
// reset O(1).
func (fr *frontierState) stamp(wk int) uint64 { return fr.epoch<<32 | uint64(uint32(wk)) }
func (fr *frontierState) stampNone() uint64   { return fr.epoch << 32 }

// reset prepares the state for a fresh execution on a persistent engine:
// an epoch bump invalidates every wake stamp, the heap and arena are
// truncated, and the bitsets clear through their summary layers — nothing
// is O(n).
func (fr *frontierState) reset() {
	fr.epoch++
	if fr.epoch == 1<<32 {
		// 2^32 executions on one engine: renumber before epoch<<32|round
		// could collide with an ancient stamp. Unreachable in practice.
		fr.epoch = 1
		clear(fr.wake)
	}
	fr.heap = fr.heap[:0]
	fr.wakeVs = fr.wakeVs[:0]
	fr.open.round = noBucket
	fr.cur.clear()
	fr.nxt.clear()
	fr.curCount, fr.nxtCount = 0, 0
	fr.notDone = 0
	fr.preMax = 0
	fr.preSampled = false
}

// heapPush inserts a closed bucket into the min-heap by round. Several
// buckets may carry the same round (registration runs that were
// interleaved with other rounds); draining handles duplicates naturally,
// and vertex-level dedup is the wake stamps' job, so no tie-break order is
// needed.
func (fr *frontierState) heapPush(b wakeBucket) {
	h := append(fr.heap, b)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].round <= h[i].round {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	fr.heap = h
}

// heapPop removes and returns the earliest-round bucket.
func (fr *frontierState) heapPop() wakeBucket {
	h := fr.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].round < h[min].round {
			min = l
		}
		if r < len(h) && h[r].round < h[min].round {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	fr.heap = h
	return top
}

// nextWakeRound returns the earliest pending wake round across the heap
// and the open bucket; 0 when none is pending. A bucket whose
// registrations were all superseded still reports its round — the run
// loop then skips to it, drains nothing, and re-asks; the idle-gap
// accounting telescopes to the same totals, so phantom rounds are
// invisible in the results (the scheduler-equivalence suite covers the
// re-registration cases).
func (fr *frontierState) nextWakeRound() int {
	min := 0
	if len(fr.heap) > 0 {
		min = int(fr.heap[0].round)
	}
	if ob := fr.open.round; ob != noBucket && (min == 0 || int(ob) < min) {
		min = int(ob)
	}
	return min
}

// register records a program's NextWake answer given after round cur.
// Wakes due next round go straight into the next-frontier bitset; later
// wakes append to the open bucket (same round) or close it and open a new
// one. The latest answer wins: re-registering replaces the previous wake
// (entries with stale stamps are skipped at drain time).
func (fr *frontierState) register(v int32, wk, cur int) {
	if wk == NeverWake {
		fr.wake[v] = fr.stampNone()
		return
	}
	if wk <= cur+1 {
		fr.wake[v] = fr.stampNone()
		if fr.nxt.add(v) {
			fr.nxtCount++
		}
		return
	}
	st := fr.stamp(wk)
	if fr.wake[v] == st {
		return // duplicate registration for the same round
	}
	fr.wake[v] = st
	ob := &fr.open
	if ob.round != int32(wk) {
		if ob.round != noBucket {
			ob.end = int32(len(fr.wakeVs))
			fr.heapPush(*ob)
		}
		ob.round = int32(wk)
		ob.off = int32(len(fr.wakeVs))
	}
	fr.wakeVs = append(fr.wakeVs, v)
}

// drainBucket moves a due bucket's still-live registrations into the
// frontier: O(1) per vertex (a stamp check and a bitset insert).
func (fr *frontierState) drainBucket(b wakeBucket) {
	st := fr.stamp(int(b.round))
	for _, v := range fr.wakeVs[b.off:b.end] {
		if fr.wake[v] != st {
			continue // superseded registration
		}
		fr.wake[v] = fr.stampNone()
		if fr.cur.add(v) {
			fr.curCount++
		}
	}
}

// buildFrontier assembles the frontier for `round`: the accumulated
// near-wakes become current by a bitset swap, then the self-wakes
// due by `round` and the always-active vertices are inserted (the bitset
// dedupes, so no sort and no membership arrays).
func (e *engine) buildFrontier(round int) {
	fr := e.fr
	fr.cur, fr.nxt = fr.nxt, fr.cur
	fr.nxt.clear()
	fr.curCount, fr.nxtCount = fr.nxtCount, 0
	for len(fr.heap) > 0 && int(fr.heap[0].round) <= round {
		fr.drainBucket(fr.heapPop())
	}
	if ob := &fr.open; ob.round != noBucket && int(ob.round) <= round {
		ob.end = int32(len(fr.wakeVs))
		fr.drainBucket(*ob)
		ob.round = noBucket
	}
	for _, v := range fr.alwaysOn {
		if fr.cur.add(v) {
			fr.curCount++
		}
	}
}

// samplePre records the initial StateBits of every vertex outside the
// first frontier. RunReference samples every vertex every round, so the
// states of vertices that are skipped before their first execution are
// exactly their initial states; folding this maximum (at the end of the
// first round, like RunReference's first samples) makes Metrics.MaxStateBits
// match it.
func (e *engine) samplePre() {
	fr := e.fr
	max := 0
	for v, nd := range e.nw.nodes {
		if fr.cur.has(int32(v)) {
			continue
		}
		if s, ok := nd.(StateSizer); ok {
			if b := s.StateBits(); b > max {
				max = b
			}
		}
	}
	fr.preMax = max
	fr.preSampled = true
}

// send runs the Send half over the frontier, iterating the bitset through
// its summary layer in ascending vertex order, so the delivery chains and
// the observer log stay in sender order. It stops at the first offending
// message — the smallest failing sender's, the error RunReference reports
// — and otherwise folds the round's traffic into the metrics and replays
// it to the observer.
func (e *engine) send() error {
	nw, ob, cur := e.nw, e.ob, e.fr.cur
	// beginRound recycles the previous round's delivery chains (the
	// receive half is done with them) and the arena.
	ob.beginRound(e.round)
	env, nbrs, round := &e.env, nw.topo.neighbors, e.round
	for si, sw := range cur.sum {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := cur.words[wi]
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				ob.begin(v)
				nw.nodes[v].Send(env.bind(v, nbrs[v], round), ob)
				if ob.err != nil {
					return ob.err
				}
			}
		}
	}
	m := &nw.metrics
	m.Messages += ob.sent()
	m.Bits += ob.bitsTotal
	if ob.maxEdge > m.MaxEdgeBits {
		m.MaxEdgeBits = ob.maxEdge
	}
	if ob.sent() == 0 {
		m.DroppedRounds++
	}
	if nw.observer != nil {
		ob.replay(nw.observer)
	}
	return nil
}

// receive runs the Receive half over the receive set (frontier ∪ this
// round's receivers). Each inbox is the receiver's chain in the one
// Outbox, materialized into the engine's scratch; the chain is already in
// the canonical delivery order, ascending sender and emission order within
// a sender. Vertices execute one at a time and Receive must not retain the
// inbox, so one reusable scratch suffices. The half also maintains the
// incremental Done count and registers the programs' next wakes.
//
// The receive set is never materialized: the claim pass inserts the
// Outbox's touched receivers into `rcv`, and the iteration walks the union
// cur|rcv word by word, clearing each `rcv` word and summary word as it
// consumes it, so `rcv` is empty again when the half ends. A reception
// schedules nothing by itself: `nxt` gains only the wakes that register
// records from NextWake answers.
func (e *engine) receive() {
	nw, fr, ob := e.nw, e.fr, e.ob
	for _, to := range ob.touched {
		fr.rcv.add(to)
	}
	var maxState, maxInbox int
	cur, rcv := fr.cur, fr.rcv
	env, nbrs, round := &e.env, nw.topo.neighbors, e.round
	for si := range cur.sum {
		sw := cur.sum[si] | rcv.sum[si]
		rcv.sum[si] = 0
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := cur.words[wi] | rcv.words[wi]
			rcv.words[wi] = 0
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				inbox := ob.appendChain(v, e.inbox[:0])
				e.inbox = inbox
				if len(inbox) > maxInbox {
					maxInbox = len(inbox)
				}
				// The same binding serves Receive and the NextWake below.
				env.bind(v, nbrs[v], round)
				nd := nw.nodes[v]
				nd.Receive(env, inbox)
				if s, ok := nd.(StateSizer); ok {
					if b := s.StateBits(); b > maxState {
						maxState = b
					}
				}
				if d := nd.Done(); d != fr.done[v] {
					fr.done[v] = d
					if d {
						fr.notDone--
					} else {
						fr.notDone++
					}
				}
				if sc, ok := nd.(Scheduled); ok {
					fr.register(int32(v), sc.NextWake(env, round), round)
				}
			}
		}
	}
	// The pre-sampled state maximum is folded from the first round on,
	// when RunReference folds its first samples.
	m := &nw.metrics
	m.MaxStateBits = max(m.MaxStateBits, maxState, fr.preMax)
	m.MaxInboxSize = max(m.MaxInboxSize, maxInbox)
}

// execute runs one full execution on the engine: rounds until every node
// is Done, or an error after maxRounds; see the file comment for the
// frontier invariant and the accounting argument. It touches only state
// that beginRound, the receive half and frontierState.reset recycle, so a
// persistent engine (Session) can call it repeatedly — after the node
// programs are Reset — with zero steady-state allocations, and every
// execution is bit-for-bit identical to a run on a freshly built engine.
func (e *engine) execute(maxRounds int) error {
	nw := e.nw
	fr := e.fr
	fr.reset()
	if nw.observer != nil {
		nw.observer(0, -1, -1, 0, WireView{}) // run boundary
	}
	// Initial scan, one pass over the programs: RunReference's pre-run
	// allDone probe plus the initial self-wake collection (NextWake after
	// construction/reset). Both are pure queries, so fusing the passes
	// only improves locality.
	env, nbrs := &e.env, nw.topo.neighbors
	for v, nd := range nw.nodes {
		d := nd.Done()
		fr.done[v] = d
		if !d {
			fr.notDone++
		}
		if sc, ok := nd.(Scheduled); ok {
			fr.register(int32(v), sc.NextWake(env.bind(v, nbrs[v], 0), 0), 0)
		}
	}

	round := 1
	for {
		if fr.notDone == 0 {
			return nil
		}
		e.buildFrontier(round)
		if !fr.preSampled {
			e.samplePre()
		}
		if fr.curCount == 0 {
			// Idle until the next self-wake: RunReference would execute
			// these rounds as empty rounds. Account them identically and
			// skip ahead (satisfying the Metrics.DroppedRounds invariant).
			w := fr.nextWakeRound()
			if w == 0 || w > maxRounds {
				// No wake can ever change state again (or none before the
				// budget runs out): RunReference executes empty rounds up
				// to maxRounds and reports no quiescence.
				if maxRounds >= round {
					nw.metrics.DroppedRounds += maxRounds - round + 1
					nw.metrics.Rounds = maxRounds
					if fr.preMax > nw.metrics.MaxStateBits {
						nw.metrics.MaxStateBits = fr.preMax
					}
				}
				return fmt.Errorf("congest: no quiescence after %d rounds", maxRounds)
			}
			nw.metrics.DroppedRounds += w - round
			nw.metrics.Rounds = w - 1
			if fr.preMax > nw.metrics.MaxStateBits {
				nw.metrics.MaxStateBits = fr.preMax
			}
			round = w
			continue
		}
		if round > maxRounds {
			return fmt.Errorf("congest: no quiescence after %d rounds", maxRounds)
		}
		nw.metrics.Rounds = round
		e.round = round
		if err := e.send(); err != nil {
			return err
		}
		e.receive()
		round++
	}
}
