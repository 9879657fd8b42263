package congest

// This file implements the frontier scheduler: the engine strategy that
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
//  1. a message was delivered to it in round r-1 (messages may change its
//     state, so its next Send may emit);
//  2. its program self-scheduled round r through the Scheduled contract
//     (NextWake), which covers spontaneous actions — a wave initiation at
//     round 2*tau'+1, a fixed-duration timer firing, the next step of a
//     pipelined schedule;
//  3. its program does not implement the contract at all — the
//     conservative always-active default, under which the vertex runs
//     every round exactly as in the dense engine, so custom user programs
//     written against the facade keep working unchanged.
//
// Message delivery is independent of the frontier: a message sent in round
// r is received in round r by its target whether or not the target was
// scheduled (the receive half runs over frontier ∪ receivers).
//
// The contract a Scheduled program must uphold is exactly: whenever the
// scheduler would skip the vertex, running its Send and Receive (with an
// empty inbox) in the dense engine would emit nothing and change no state.
// Under that contract the frontier execution is bit-identical to the dense
// one by construction: skipped work is work that provably does nothing.
// The scheduler-equivalence tests assert this across the whole program
// suite, worker counts and session reuse, against RunReference.
//
// # Representation: hierarchical bitsets, shard-local everything
//
// The frontier and its accumulator are shardedBitsets (bitset.go): a
// one-bit-per-vertex word layer under a one-bit-per-word summary layer.
// Building, deduplicating and iterating the frontier is O(active/64 +
// n/4096) — insertion dedupes in O(1), iteration chases set summary bits
// with bits.TrailingZeros64, and there is no per-round sorting and no
// steady-state allocation at all. Two bitsets double-buffer the rounds:
// `cur` is the frontier being executed, `nxt` accumulates next round's
// (receivers of this round, plus wakes due next round); buildFrontier is a
// pointer swap plus the heap-due and always-on inserts.
//
// Vertices are split into k contiguous shards aligned to 4096 vertices
// (64 words = one summary word), so every word either layer owns belongs
// to exactly one worker. That makes all frontier bookkeeping shard-local:
//
//   - each worker has its own wake queue — a min-heap of round-keyed
//     vertex buckets (wakeBucket) holding only its vertices — so NextWake
//     registrations during the receive half write worker-private state and
//     there is no barrier-time merge; bucketing makes the common bulk
//     pattern (every vertex registers the same timer round) O(1) per
//     vertex on both the register and the drain side;
//   - receive-set accumulation is merge-free: every worker scans all
//     workers' touched-receiver lists but claims only its own vertices,
//     inserting them into its shard of `nxt` directly;
//   - wake registrations are epoch-stamped (wake[v] = epoch<<32|round), so
//     resetting a persistent engine between Session executions is one
//     epoch increment, not an O(n) wipe.
//
// # Determinism
//
// The frontier is a deterministic function of the run history: receivers
// are determined by the (deterministic) sends, self-wakes by program state,
// and the always-active set by the program types. Worker w executes its
// contiguous vertex shard in ascending order, so per-worker delivery
// buffers stay ordered by ascending sender, and the round barrier's k-way
// inbox merge, metrics fold and canonical error selection work exactly as
// in the dense engine — outputs are bit-identical for every worker count
// and shard geometry.
//
// # Quiescence and idle-round accounting
//
// The engine tracks the number of not-Done vertices incrementally (a
// vertex's Done can only change in a round that executes it), so quiescence
// is detected without the dense engine's O(n) per-round scan. When the
// frontier is empty but self-wakes are pending, every round up to the next
// wake would execute as an empty round in the dense engine; the scheduler
// skips them in O(1) and accounts them identically — Metrics.Rounds
// advances over the gap and Metrics.DroppedRounds counts each skipped
// round, exactly as if they had been executed empty. An empty frontier
// with no pending wake and not-Done vertices can never quiesce; the run
// fails with the same error and metrics the dense engine produces at
// maxRounds.

import (
	"fmt"
	"math/bits"
)

// Scheduler selects the engine's round-execution strategy.
type Scheduler uint8

const (
	// SchedulerFrontier (the default) executes only the active frontier
	// each round: vertices that received a message last round, vertices
	// whose program self-scheduled the round (Scheduled), and vertices
	// whose program does not implement the contract (always active). It is
	// bit-identical to the dense engine for every worker count.
	SchedulerFrontier Scheduler = iota
	// SchedulerDense executes every vertex every round — the original
	// strategy, retained as a selectable oracle for equivalence testing
	// and benchmarking.
	SchedulerDense
)

// String returns the scheduler's flag name.
func (s Scheduler) String() string {
	if s == SchedulerDense {
		return "dense"
	}
	return "frontier"
}

// WithScheduler selects the round-execution strategy (default
// SchedulerFrontier). Like WithWorkers, the choice only trades wall-clock
// time: outputs, Metrics, observer traces and errors are bit-identical for
// either scheduler.
func WithScheduler(s Scheduler) Option {
	return func(nw *Network) { nw.sched = s }
}

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
// message-driven until further notice. A delivered message always
// schedules its receiver for the following round, so NextWake only needs
// to cover spontaneous actions.
//
// Contract: if NextWake answers NeverWake (or a round later than r), then
// executing the vertex at round r with an empty inbox must emit nothing
// and change no state — that is what makes skipping it invisible.
// Programs that do not implement Scheduled are conservatively executed
// every round, which reproduces dense behavior exactly.
type Scheduled interface {
	NextWake(env *Env, round int) int
}

// wakeBucket groups one shard's pending self-wakes that share a target
// round: the registrations wakeVs[off:end] of the owning shard's arena.
// Programs overwhelmingly register wakes in runs of the same round (a
// fixed-duration timer registers the deadline for every vertex, a
// pipelined schedule the next stage), so bucketing makes both sides cheap:
// registration appends to the shard's open bucket in O(1), and draining a
// due bucket is O(1) per vertex — no per-entry heap sift-downs, which at
// n=256k used to cost an O(n log n) storm in the round every timer fires.
//
// Bucket storage is a per-shard append-only arena: only the newest (open)
// bucket grows and it is always the arena tail, so closing a bucket just
// freezes its end offset. Nothing is freed mid-run — a reset truncates the
// arena — so steady-state executions allocate nothing and there is no
// arena-size churn.
type wakeBucket struct {
	round    int32
	off, end int32 // wakeVs[off:end]; the open bucket's end is the arena tail
}

// noBucket marks an empty open-bucket slot.
const noBucket = int32(-1)

// shardWordAlign is the word-granularity a shard boundary must be aligned
// to: 64 words = one summary word = 4096 vertices, so a shard owns whole
// summary words and workers never write a shared bitset word.
const shardWordAlign = 64

// frontierState is the engine's per-run frontier bookkeeping. Everything
// is allocated once (newFrontierState) and recycled across rounds and —
// via reset — across the executions of a persistent Session engine, so
// steady-state rounds and re-run Evaluations allocate nothing: the bitsets
// are fixed arrays, the shard heap arenas are kept at capacity, and the
// epoch stamps make the wake array reusable without wiping it.
type frontierState struct {
	k   int // worker count (shard count)
	wps int // words per shard; multiple of shardWordAlign

	alwaysOn []int32 // vertices without the Scheduled contract, ascending

	cur *shardedBitset // the frontier executing the current round
	nxt *shardedBitset // accumulator for the next round's frontier

	curCount int // |cur|, folded from the shard add-deltas
	nxtCount int // |nxt| so far (coordinator's share; workers fold in deltas)

	epoch uint64   // current execution's stamp epoch (see wake)
	wake  []uint64 // wake[v] = epoch<<32|round of v's live registration

	heaps  [][]wakeBucket // per-shard min-heaps of closed buckets, by round
	open   []wakeBucket   // per-shard bucket currently receiving appends
	wakeVs [][]int32      // per-shard append-only registration arenas

	done    []bool // last observed Done() per vertex
	notDone int

	preMax     int  // max initial StateBits over vertices outside frontier(1)
	preSampled bool // preMax computed (at the first frontier build)

	scheds []Scheduled // scheds[v] non-nil iff nodes[v] implements Scheduled
	sizers []StateSizer

	addDelta  []int // per-worker count of new nxt members this round
	doneDelta []int // per-worker notDone deltas
}

// wordsPerShard returns the shard width, in bitset words, of a k-way split
// of nwords words: ceil(nwords/k) rounded up to shardWordAlign.
func wordsPerShard(nwords, k int) int {
	wps := (nwords + k - 1) / k
	return (wps + shardWordAlign - 1) &^ (shardWordAlign - 1)
}

// shardWorkers returns how many shards of a k-way frontier split of n
// vertices own at least one vertex: shards are aligned to shardWordAlign
// words, so on a small vertex set the trailing ones are empty.
// EffectiveWorkers caps the automatic worker count of a frontier network
// with it.
func shardWorkers(n, k int) int {
	nwords := (n + 63) >> 6
	wps := wordsPerShard(nwords, k)
	return (nwords + wps - 1) / wps
}

func newFrontierState(n, k int, alwaysOn []int32, nodes []Node) *frontierState {
	fr := &frontierState{
		k:         k,
		wps:       wordsPerShard((n+63)>>6, k),
		alwaysOn:  alwaysOn,
		cur:       newShardedBitset(n),
		nxt:       newShardedBitset(n),
		wake:      make([]uint64, n),
		heaps:     make([][]wakeBucket, k),
		open:      make([]wakeBucket, k),
		wakeVs:    make([][]int32, k),
		done:      make([]bool, n),
		scheds:    make([]Scheduled, n),
		sizers:    make([]StateSizer, n),
		addDelta:  make([]int, k),
		doneDelta: make([]int, k),
	}
	for s := range fr.open {
		fr.open[s].round = noBucket
	}
	// The interface assertions are hoisted here, once per engine, off the
	// per-round and per-execution hot paths.
	for v, nd := range nodes {
		if sc, ok := nd.(Scheduled); ok {
			fr.scheds[v] = sc
		}
		if s, ok := nd.(StateSizer); ok {
			fr.sizers[v] = s
		}
	}
	return fr
}

// shardOf returns the worker that owns vertex v.
func (fr *frontierState) shardOf(v int32) int { return int(uint32(v)>>6) / fr.wps }

// shardWords returns worker w's word range [wlo, whi) over the bitset word
// layer (empty for trailing shards past the end of a small vertex set).
func (fr *frontierState) shardWords(w int) (wlo, whi int) {
	nw := len(fr.cur.words)
	wlo = w * fr.wps
	if wlo > nw {
		wlo = nw
	}
	whi = wlo + fr.wps
	if whi > nw {
		whi = nw
	}
	return wlo, whi
}

// stamp is the wake-array encoding of a live registration for round wk in
// the current epoch; stampNone marks "no live registration" this epoch.
// Entries from earlier epochs never match either, which is what makes
// reset O(1).
func (fr *frontierState) stamp(wk int) uint64 { return fr.epoch<<32 | uint64(uint32(wk)) }
func (fr *frontierState) stampNone() uint64   { return fr.epoch << 32 }

// reset prepares the state for a fresh execution on a persistent engine:
// an epoch bump invalidates every wake stamp, the bucket arenas return to
// their shard free lists, and the bitsets clear through their summary
// layers — nothing is O(n).
func (fr *frontierState) reset() {
	fr.epoch++
	if fr.epoch == 1<<32 {
		// 2^32 executions on one engine: renumber before epoch<<32|round
		// could collide with an ancient stamp. Unreachable in practice.
		fr.epoch = 1
		clear(fr.wake)
	}
	for s := range fr.heaps {
		fr.heaps[s] = fr.heaps[s][:0]
		fr.wakeVs[s] = fr.wakeVs[s][:0]
		fr.open[s].round = noBucket
	}
	fr.cur.clear()
	fr.nxt.clear()
	fr.curCount, fr.nxtCount = 0, 0
	fr.notDone = 0
	fr.preMax = 0
	fr.preSampled = false
}

// heapPush inserts a closed bucket into shard s's min-heap by round.
// Several buckets may carry the same round (registration runs that were
// interleaved with other rounds); draining handles duplicates naturally,
// and vertex-level dedup is the wake stamps' job, so no tie-break order is
// needed.
func (fr *frontierState) heapPush(s int, b wakeBucket) {
	h := append(fr.heaps[s], b)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].round <= h[i].round {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	fr.heaps[s] = h
}

// heapPop removes and returns shard s's earliest-round bucket.
func (fr *frontierState) heapPop(s int) wakeBucket {
	h := fr.heaps[s]
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
	fr.heaps[s] = h
	return top
}

// nextWakeRound returns the earliest pending wake round across the shard
// bucket heaps; 0 when none are pending. A bucket whose registrations were
// all superseded still reports its round — the run loop then skips to it,
// drains nothing, and re-asks; the idle-gap accounting telescopes to the
// same totals, so phantom rounds are invisible in the results (the
// scheduler-equivalence suite covers the re-registration cases).
func (fr *frontierState) nextWakeRound() int {
	min := 0
	for s := range fr.heaps {
		if len(fr.heaps[s]) > 0 {
			if r := int(fr.heaps[s][0].round); min == 0 || r < min {
				min = r
			}
		}
		if ob := &fr.open[s]; ob.round != noBucket {
			if r := int(ob.round); min == 0 || r < min {
				min = r
			}
		}
	}
	return min
}

// register records a program's NextWake answer given after round cur, into
// shard s's structures — the caller must own shard s (s == fr.shardOf(v)),
// which is what lets the receive half register wakes without a barrier
// merge. Wakes due next round go straight into the next-frontier bitset;
// later wakes append to the shard's open bucket (same round) or close it
// and open a new one. The latest answer wins: re-registering replaces the
// previous wake (entries with stale stamps are skipped at drain time).
// Reports whether nxt gained a member.
func (fr *frontierState) register(s int, v int32, wk, cur int) bool {
	if wk == NeverWake {
		fr.wake[v] = fr.stampNone()
		return false
	}
	if wk <= cur+1 {
		fr.wake[v] = fr.stampNone()
		return fr.nxt.add(v)
	}
	st := fr.stamp(wk)
	if fr.wake[v] == st {
		return false // duplicate registration for the same round
	}
	fr.wake[v] = st
	ob := &fr.open[s]
	if ob.round != int32(wk) {
		if ob.round != noBucket {
			ob.end = int32(len(fr.wakeVs[s]))
			fr.heapPush(s, *ob)
		}
		ob.round = int32(wk)
		ob.off = int32(len(fr.wakeVs[s]))
	}
	fr.wakeVs[s] = append(fr.wakeVs[s], v)
	return false
}

// drainBucket moves a due bucket's still-live registrations into the
// frontier: O(1) per vertex (a stamp check and a bitset insert).
func (fr *frontierState) drainBucket(s int, b wakeBucket, cur *shardedBitset, count *int) {
	st := fr.stamp(int(b.round))
	for _, v := range fr.wakeVs[s][b.off:b.end] {
		if fr.wake[v] != st {
			continue // superseded registration
		}
		fr.wake[v] = fr.stampNone()
		if cur.add(v) {
			*count++
		}
	}
}

// buildFrontier assembles the frontier for `round`: the accumulated
// receivers/near-wakes become current by a bitset swap, then the self-wakes
// due by `round` and the always-active vertices are inserted (the bitset
// dedupes, so no sort and no membership arrays).
func (e *engine) buildFrontier(round int) {
	fr := e.fr
	fr.cur, fr.nxt = fr.nxt, fr.cur
	fr.nxt.clear()
	count := fr.nxtCount
	fr.nxtCount = 0
	cur := fr.cur
	for s := range fr.heaps {
		for len(fr.heaps[s]) > 0 && int(fr.heaps[s][0].round) <= round {
			fr.drainBucket(s, fr.heapPop(s), cur, &count)
		}
		if ob := &fr.open[s]; ob.round != noBucket && int(ob.round) <= round {
			ob.end = int32(len(fr.wakeVs[s]))
			fr.drainBucket(s, *ob, cur, &count)
			ob.round = noBucket
		}
	}
	for _, v := range fr.alwaysOn {
		if cur.add(v) {
			count++
		}
	}
	fr.curCount = count
}

// samplePre records the initial StateBits of every vertex outside the
// first frontier. The dense engine samples every vertex every round, so
// the states of vertices that are skipped before their first execution
// are exactly their initial states; folding this maximum (at the first
// round barrier, like the dense engine's first samples) makes
// Metrics.MaxStateBits scheduler-independent.
func (e *engine) samplePre() {
	fr := e.fr
	max := 0
	for v, s := range fr.sizers {
		if s == nil || fr.cur.has(int32(v)) {
			continue
		}
		if b := s.StateBits(); b > max {
			max = b
		}
	}
	fr.preMax = max
	fr.preSampled = true
}

// sendShardF runs the Send half for worker w's vertex shard, iterating its
// slice of the frontier bitset through the summary layer (ascending, so
// the delivery buffers stay canonically ordered). Identical to sendShard
// except for the iteration domain.
func (e *engine) sendShardF(w int) {
	nw := e.nw
	ob := e.ws[w].outbox
	ob.beginRound(e.round)
	fr := e.fr
	wlo, whi := fr.shardWords(w)
	if wlo >= whi {
		return
	}
	cur := fr.cur
	for si := wlo >> 6; si < (whi+63)>>6; si++ {
		sw := cur.sum[si]
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := cur.words[wi]
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e.envs[v].Round = e.round
				ob.begin(v)
				nw.nodes[v].Send(&e.envs[v], ob)
				if e.outs != nil {
					e.outs[v] = append(e.outs[v][:0], ob.msgs...)
				}
				if ob.err != nil {
					return
				}
			}
		}
	}
}

// recvShardF runs the Receive half for worker w's shard of the receive set
// (frontier ∪ this round's receivers), merging inboxes exactly like
// recvShard, and additionally maintains the incremental Done count and
// registers the programs' next wakes — all into shard-local state, so the
// barrier only folds counters.
//
// The receive set is never materialized: at entry the worker claims its
// own vertices from every worker's touched-receiver list into `nxt` (rule
// 1 of the invariant seeds next round's frontier with this round's
// receivers), and then iterates the union cur|nxt word by word. Insertions
// during the iteration are safe snapshots: register only ever adds the
// vertex currently being executed, whose union bit was already consumed.
func (e *engine) recvShardF(w int) {
	nw := e.nw
	st := &e.ws[w]
	fr := e.fr
	var maxState, maxInbox int
	delta, added := 0, 0
	wlo, whi := fr.shardWords(w)
	if wlo >= whi {
		fr.addDelta[w], fr.doneDelta[w] = 0, 0
		st.maxStateBits, st.maxInboxSize = 0, 0
		return
	}
	if !e.empty {
		vlo, vhi := int32(wlo<<6), int32(whi<<6)
		for ww := range e.ws {
			for _, to := range e.ws[ww].outbox.touched {
				if to >= vlo && to < vhi && fr.nxt.add(to) {
					added++
				}
			}
		}
	}
	cur, nxt := fr.cur, fr.nxt
	for si := wlo >> 6; si < (whi+63)>>6; si++ {
		sw := cur.sum[si] | nxt.sum[si]
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := cur.words[wi] | nxt.words[wi]
			for word != 0 {
				v := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				var inbox []Inbound
				if !e.empty {
					inbox = gatherChains(e.obs, st.heads, v, st.inbox[:0])
					st.inbox = inbox
				}
				if len(inbox) > maxInbox {
					maxInbox = len(inbox)
				}
				// Receive-only vertices (receivers outside the frontier) did
				// not pass through the send half; their Round must still be
				// current.
				e.envs[v].Round = e.round
				nd := nw.nodes[v]
				nd.Receive(&e.envs[v], inbox)
				if s := fr.sizers[v]; s != nil {
					if b := s.StateBits(); b > maxState {
						maxState = b
					}
				}
				if d := nd.Done(); d != fr.done[v] {
					fr.done[v] = d
					if d {
						delta--
					} else {
						delta++
					}
				}
				if sc := fr.scheds[v]; sc != nil {
					if fr.register(w, int32(v), sc.NextWake(&e.envs[v], e.round), e.round) {
						added++
					}
				}
			}
		}
	}
	fr.addDelta[w] = added
	fr.doneDelta[w] = delta
	st.maxStateBits = maxState
	st.maxInboxSize = maxInbox
}

// finishRecvF folds the receive half at the round barrier: metric shards,
// the pre-sampled state maximum (folded from the first barrier on, when
// the dense engine folds its first samples), and the shard-local Done and
// frontier-size deltas. Unlike the pre-bitset engine there is no wake
// merge here — registrations already landed in shard-local heaps.
func (e *engine) finishRecvF() {
	m := &e.nw.metrics
	fr := e.fr
	for w := range e.ws {
		st := &e.ws[w]
		if st.maxStateBits > m.MaxStateBits {
			m.MaxStateBits = st.maxStateBits
		}
		if st.maxInboxSize > m.MaxInboxSize {
			m.MaxInboxSize = st.maxInboxSize
		}
		fr.notDone += fr.doneDelta[w]
		fr.nxtCount += fr.addDelta[w]
	}
	if fr.preMax > m.MaxStateBits {
		m.MaxStateBits = fr.preMax
	}
}

// runPhaseF executes one frontier half-round. Tiny frontiers run inline on
// the coordinator — dispatching k workers for a handful of vertices costs
// more in barrier traffic than the work itself; the shard assignment is
// identical either way, so the choice is invisible in the results.
func (e *engine) runPhaseF(ph, size int) {
	if e.k == 1 || size < minVerticesPerWorker {
		for w := 0; w < e.k; w++ {
			e.dispatch(w, ph)
		}
		return
	}
	e.wg.Add(e.k)
	for _, ch := range e.phase {
		ch <- ph
	}
	e.wg.Wait()
}

// executeFrontier is the frontier scheduler's run loop; see the file
// comment for the invariant and the accounting argument. It recycles all
// frontier state, so a persistent Session engine re-runs it with zero
// steady-state allocations, bit-identically to a fresh engine.
func (e *engine) executeFrontier(maxRounds int) error {
	nw := e.nw
	fr := e.fr
	fr.reset()
	if nw.observer != nil {
		nw.observer(0, -1, -1, 0, WireView{}) // run boundary
	}
	// Initial scan, one pass over the programs: the dense engine's pre-run
	// allDone probe plus the initial self-wake collection (NextWake after
	// construction/reset). Both are pure queries, so fusing the passes
	// only improves locality.
	for v, nd := range nw.nodes {
		d := nd.Done()
		fr.done[v] = d
		if !d {
			fr.notDone++
		}
		if sc := fr.scheds[v]; sc != nil {
			e.envs[v].Round = 0
			if fr.register(fr.shardOf(int32(v)), int32(v), sc.NextWake(&e.envs[v], 0), 0) {
				fr.nxtCount++
			}
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
			// Idle until the next self-wake: the dense engine would execute
			// these rounds as empty rounds. Account them identically and
			// skip ahead (satisfying the Metrics.DroppedRounds invariant).
			w := fr.nextWakeRound()
			if w == 0 || w > maxRounds {
				// No wake can ever change state again (or none before the
				// budget runs out): the dense engine executes empty rounds
				// up to maxRounds and reports no quiescence.
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

		e.runPhaseF(phaseSendF, fr.curCount)
		if err := e.finishSend(); err != nil {
			return err
		}
		// The receive set is frontier ∪ receivers; curCount plus the
		// touched totals overestimates it (overlap, cross-worker
		// duplicates), but it is only the inline-dispatch heuristic.
		recvSize := fr.curCount
		for w := range e.ws {
			recvSize += len(e.ws[w].outbox.touched)
		}
		e.runPhaseF(phaseRecvF, recvSize)
		e.finishRecvF()
		round++
	}
}
