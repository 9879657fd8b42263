package congest

// Lane-fused execution: a MultiSession runs k independent Evaluations (k
// "lanes") in lockstep through a single scheduler pass. Every quantum
// algorithm in this repository is a loop of independent Evaluations over the
// same Topology — ExactDiameter runs Õ(sqrt(nD)) of them, Eccentricities
// runs n — and running each on its own cloned Session repeats the whole
// per-round fixed cost (frontier iteration, barrier traffic, CSR row loads)
// once per Evaluation. The lane engine amortizes it: one hierarchical-bitset
// frontier iteration per round over the union of the lane frontiers, one
// Env/CSR row load per visited vertex feeding k per-lane node states.
//
// # What is shared and what is per-lane
//
// Shared across lanes: the Topology (read-only), the Env array (vertex id,
// n, neighbor views, the global round number, the per-vertex decode
// scratch — safe because lanes at one vertex execute serially on the
// vertex's owning worker), the merged-inbox scratch, and the worker pool
// with its round barriers.
//
// Per-lane: the node programs, the frontier bookkeeping (a full
// frontierState per lane: cur/nxt bitsets, wake buckets, incremental Done
// counts, pre-frontier state samples), one Outbox per (worker, lane) — so
// wire arenas, delivery buffers, per-edge ledgers and metric shards are as
// private as in a solo Session — the Metrics, and the optional Observer.
// Bits/Rounds/StateBits accounting is therefore exactly per-Evaluation.
//
// # Lockstep rounds and per-lane accounting
//
// All lanes advance through one global round counter. In global round r,
// a lane is "active" when its own frontier is non-empty; only active lanes
// execute the half-rounds, but every live lane accounts round r exactly as
// its solo engine would:
//
//   - active lane: Rounds = r, traffic folded from its own outboxes,
//     DroppedRounds++ iff it sent nothing — identical to the solo barrier;
//   - idle lane (empty frontier, a wake pending by maxRounds):
//     DroppedRounds++, Rounds = r — the solo engine's O(1) gap skip
//     telescopes to exactly these per-round totals;
//   - idle lane with no wake ever due (or none by maxRounds): fails now
//     with the solo engine's timeout error and gap accounting;
//   - finished lane (no not-Done vertices at the round boundary): stops
//     participating with its Metrics frozen — the solo run would have
//     returned at the same boundary.
//
// When every live lane is idle the engine skips the whole gap in O(1),
// accounting each lane's skipped rounds identically. A lane that fails
// validation in the send half keeps its canonical error (smallest sender
// id, exactly the solo selection), does not run the receive half, and goes
// dead without disturbing the other lanes.
//
// Because each lane's frontier evolution, delivery buffers, wake
// registrations and metric folds are all computed from that lane's own
// state, a lane's outputs, Metrics, observer wire trace and error are
// bit-for-bit identical to a solo Session run of the same program family —
// for every worker count, every lane count and either scheduler. The
// lane-equivalence suite (lanes_test.go) asserts exactly that. A lane whose
// network resolves to the dense strategy (WithScheduler(SchedulerDense), or
// no program implements Scheduled) runs with an all-vertices always-on set
// and no NextWake calls, which reproduces dense execution bit for bit.
//
// DESIGN.md ("Lane-fused execution") documents the layout and the
// accounting argument in full.

import (
	"fmt"
	"math/bits"
	"sync"
)

// lane is one Evaluation slot of a MultiSession.
type lane struct {
	idx int
	nw  *Network

	fr    *frontierState
	dense bool // runs with the all-vertices always-on set, no NextWake calls

	rs     []Resettable
	vetted bool

	armed bool  // Reset since the last Run: participates in the next Run
	err   error // this lane's outcome of the last Run it participated in

	// Per-round flags maintained by the engine.
	empty    bool // this round's send half produced no messages
	deadSend bool // failed validation in this round's send half

	outs [][]stagedMsg // per-sender emissions, kept only for the observer
}

// MultiSession runs up to Lanes() independent executions of a program
// family in lockstep through one lane-fused engine pass (see the file
// comment). Like a Session, it is built once and recycled: each batch is a
// per-lane Reset followed by one Run, and steady-state batches allocate
// almost nothing. A MultiSession is not safe for concurrent use; distinct
// MultiSessions (e.g. pooled batch contexts) may run concurrently.
type MultiSession struct {
	topo  *Topology
	lanes []*lane
	e     *multiEngine

	armedScratch []*lane
	closed       bool
}

// NewMultiSession builds a lane-fused session with `lanes` lanes over topo;
// lane l runs makeNode(l, v) at vertex v (the same family with per-lane
// parameters, in every intended use). The opts apply to every lane —
// including WithObserver, whose callback would then see every lane's
// traffic; use SetLaneObserver for per-lane traces.
func NewMultiSession(topo *Topology, lanes int, makeNode func(lane, v int) Node, opts ...Option) *MultiSession {
	if lanes < 1 {
		lanes = 1
	}
	ms := &MultiSession{topo: topo, lanes: make([]*lane, lanes)}
	for l := 0; l < lanes; l++ {
		li := l
		ms.lanes[l] = &lane{
			idx: l,
			nw:  NewNetworkOn(topo, func(v int) Node { return makeNode(li, v) }, opts...),
		}
	}
	return ms
}

// Lanes returns the lane count.
func (ms *MultiSession) Lanes() int { return len(ms.lanes) }

// Topology returns the shared topology.
func (ms *MultiSession) Topology() *Topology { return ms.topo }

// Node returns the program at vertex v of the given lane.
func (ms *MultiSession) Node(lane, v int) Node { return ms.lanes[lane].nw.nodes[v] }

// Metrics returns the given lane's metrics of the execution since its last
// Reset — exactly the Metrics a solo Session run would report.
func (ms *MultiSession) Metrics(lane int) Metrics { return ms.lanes[lane].nw.metrics }

// LaneErr returns the given lane's outcome of the last Run it participated
// in (nil: quiesced normally).
func (ms *MultiSession) LaneErr(lane int) error { return ms.lanes[lane].err }

// SetLaneObserver installs a per-lane observer, so each lane's wire trace
// stays separate (the Session.Clone shared-observer footgun does not arise).
// It must be called before the first Run; the engine fixes its observer
// wiring when it is built.
func (ms *MultiSession) SetLaneObserver(lane int, fn Observer) error {
	if ms.e != nil {
		return fmt.Errorf("congest: SetLaneObserver after the engine was built (first Run)")
	}
	if lane < 0 || lane >= len(ms.lanes) {
		return fmt.Errorf("congest: SetLaneObserver: lane %d out of range [0, %d)", lane, len(ms.lanes))
	}
	ms.lanes[lane].nw.observer = fn
	return nil
}

// Reset prepares one lane for the next Run: its node programs are restored
// to their constructed state (receiving params, see Resettable) and its
// metrics are zeroed. Only lanes Reset since the last Run participate in
// the next Run — a partial batch arms fewer lanes than Lanes().
func (ms *MultiSession) Reset(lane int, params any) error {
	if ms.closed {
		return fmt.Errorf("congest: Reset on a closed MultiSession")
	}
	if lane < 0 || lane >= len(ms.lanes) {
		return fmt.Errorf("congest: Reset: lane %d out of range [0, %d)", lane, len(ms.lanes))
	}
	la := ms.lanes[lane]
	if !la.vetted {
		rs := make([]Resettable, len(la.nw.nodes))
		for v, nd := range la.nw.nodes {
			r, ok := nd.(Resettable)
			if !ok {
				return fmt.Errorf("congest: lane %d node %d (%T) does not implement Resettable", lane, v, nd)
			}
			rs[v] = r
		}
		la.rs = rs
		la.vetted = true
	}
	for v, r := range la.rs {
		r.ResetNode(v, params)
	}
	la.nw.metrics = Metrics{}
	la.armed = true
	la.err = nil
	return nil
}

// Run executes every armed lane in lockstep until each has quiesced or
// failed, consuming the armed set (each lane needs a Reset before the next
// Run, like a Session). It returns the smallest-index lane's error, nil
// when every lane quiesced; per-lane outcomes are available via LaneErr.
func (ms *MultiSession) Run(maxRounds int) error {
	if ms.closed {
		return fmt.Errorf("congest: Run on a closed MultiSession")
	}
	armed := ms.armedScratch[:0]
	for _, la := range ms.lanes {
		if la.armed {
			armed = append(armed, la)
		}
	}
	ms.armedScratch = armed
	if len(armed) == 0 {
		return fmt.Errorf("congest: MultiSession.Run with no lane Reset")
	}
	if ms.e == nil {
		ms.e = newMultiEngine(ms)
	}
	ms.e.execute(armed, maxRounds)
	for _, la := range armed {
		if la.err != nil {
			return la.err
		}
	}
	return nil
}

// Close stops the engine's worker goroutines. The MultiSession cannot run
// again afterwards. Close is idempotent.
func (ms *MultiSession) Close() {
	if ms.closed {
		return
	}
	ms.closed = true
	if ms.e != nil {
		ms.e.stop()
		ms.e = nil
	}
}

// Lane-engine phase identifiers (the multi engine owns its worker loop).
const (
	mphaseSend = iota
	mphaseRecv
)

// laneWorkerState is one worker's private slice of the lane-engine state:
// one Outbox per lane plus per-lane receive-half accumulators, and the
// hot-loop scratch that keeps the fused shard passes free of repeated
// pointer chains (see sendShardM).
type laneWorkerState struct {
	obs      []*Outbox
	heads    []int32   // k-way chain-merge cursors, one per worker
	inbox    []Inbound // reusable materialized inbox (one vertex/lane at a time)
	maxState []int     // per-lane receive-half maxima
	maxInbox []int

	// Per-shard-call hoists, indexed by position in e.act (not lane id).
	// Re-filled at the top of every shard pass; capacity is fixed at the
	// lane count so steady-state rounds never allocate.
	lobs   []*Outbox        // this worker's outbox per active lane
	lnodes [][]Node         // node programs per active lane
	lfr    []*frontierState // frontier state per active lane
	ldone  [][]bool         // fr.done per active lane
	lsch   [][]Scheduled    // fr.scheds per active lane
	lsiz   [][]StateSizer   // fr.sizers per active lane
	curW   [][]uint64       // cur.words per active lane
	nxtW   [][]uint64       // nxt.words per active lane (receive half)
	curS   [][]uint64       // cur.sum per active lane
	nxtS   [][]uint64       // nxt.sum per active lane (receive half)
	lobx   []*Outbox        // delivery outboxes, active-lane-major, worker-minor
	lw     []uint64         // per-lane membership word at the current word index
}

// multiEngine is the persistent lane-fused execution engine of a
// MultiSession: the lockstep counterpart of `engine`, with per-lane
// frontier state and per-(worker, lane) outboxes. Everything is allocated
// once and recycled across rounds and Runs.
type multiEngine struct {
	ms    *MultiSession
	n, k  int
	round int

	geo *frontierState // shard geometry (identical for every lane)

	envs []Env
	ws   []laneWorkerState

	act []*lane // lanes executing the current round's phases, ascending lane order

	liveScratch []*lane

	phase []chan int // per-worker phase mailbox (k > 1 only)
	wg    sync.WaitGroup
}

func newMultiEngine(ms *MultiSession) *multiEngine {
	n := ms.topo.n
	e := &multiEngine{ms: ms, n: n, k: ms.lanes[0].nw.EffectiveWorkers()}
	if ms.lanes[0].nw.workers <= 0 && e.k > 1 {
		// Every lane, dense ones included, is split by frontier shards, so
		// the automatic count starts only the workers that own a vertex.
		e.k = shardWorkers(n, e.k)
	}
	e.envs = make([]Env, n)
	for v := 0; v < n; v++ {
		e.envs[v] = Env{ID: v, N: n, Neighbors: ms.topo.neighbors[v], rd: Reader{N: n}}
	}
	e.act = make([]*lane, 0, len(ms.lanes))
	e.liveScratch = make([]*lane, 0, len(ms.lanes))
	for _, la := range ms.lanes {
		// Per-lane frontier bookkeeping. A lane whose network resolves to
		// the dense strategy runs through the same machinery with every
		// vertex always-on and no Scheduled contract — which executes every
		// vertex every round and never calls NextWake, i.e. dense execution
		// exactly (see the file comment).
		la.dense = la.nw.EffectiveScheduler() == SchedulerDense
		var always []int32
		if la.dense {
			always = make([]int32, n)
			for v := range always {
				always[v] = int32(v)
			}
		} else {
			for v, nd := range la.nw.nodes {
				if _, ok := nd.(Scheduled); !ok {
					always = append(always, int32(v))
				}
			}
		}
		la.fr = newFrontierState(n, e.k, always, la.nw.nodes)
		if la.dense {
			for v := range la.fr.scheds {
				la.fr.scheds[v] = nil
			}
		}
		if la.nw.observer != nil {
			la.outs = make([][]stagedMsg, n)
		}
	}
	e.geo = ms.lanes[0].fr
	e.ws = make([]laneWorkerState, e.k)
	for w := 0; w < e.k; w++ {
		st := &e.ws[w]
		st.obs = make([]*Outbox, len(ms.lanes))
		for _, la := range ms.lanes {
			st.obs[la.idx] = newOutbox(la.nw, n)
		}
		st.heads = make([]int32, e.k)
		st.maxState = make([]int, len(ms.lanes))
		st.maxInbox = make([]int, len(ms.lanes))
		st.lobs = make([]*Outbox, 0, len(ms.lanes))
		st.lnodes = make([][]Node, 0, len(ms.lanes))
		st.lfr = make([]*frontierState, 0, len(ms.lanes))
		st.ldone = make([][]bool, 0, len(ms.lanes))
		st.lsch = make([][]Scheduled, 0, len(ms.lanes))
		st.lsiz = make([][]StateSizer, 0, len(ms.lanes))
		st.curW = make([][]uint64, 0, len(ms.lanes))
		st.nxtW = make([][]uint64, 0, len(ms.lanes))
		st.curS = make([][]uint64, 0, len(ms.lanes))
		st.nxtS = make([][]uint64, 0, len(ms.lanes))
		st.lobx = make([]*Outbox, 0, len(ms.lanes)*e.k)
		st.lw = make([]uint64, len(ms.lanes))
	}
	if e.k > 1 {
		e.phase = make([]chan int, e.k)
		for w := 0; w < e.k; w++ {
			e.phase[w] = make(chan int, 1)
			go e.worker(w)
		}
	}
	return e
}

func (e *multiEngine) dispatch(w, ph int) {
	switch ph {
	case mphaseSend:
		e.sendShardM(w)
	case mphaseRecv:
		e.recvShardM(w)
	}
}

func (e *multiEngine) worker(w int) {
	for ph := range e.phase[w] {
		e.dispatch(w, ph)
		e.wg.Done()
	}
}

// runPhase executes one fused half-round on every worker; tiny rounds run
// inline on the coordinator like runPhaseF (the shard assignment is
// identical either way, so the choice is invisible in the results).
func (e *multiEngine) runPhase(ph, size int) {
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

func (e *multiEngine) stop() {
	for _, ch := range e.phase {
		close(ch)
	}
}

func noQuiescence(maxRounds int) error {
	return fmt.Errorf("congest: no quiescence after %d rounds", maxRounds)
}

// failIdleLane applies the solo engine's timeout-in-gap outcome to a lane
// whose frontier is empty with no wake due by maxRounds at `round`.
func failIdleLane(la *lane, round, maxRounds int) {
	if maxRounds >= round {
		m := &la.nw.metrics
		m.DroppedRounds += maxRounds - round + 1
		m.Rounds = maxRounds
		if la.fr.preMax > m.MaxStateBits {
			m.MaxStateBits = la.fr.preMax
		}
	}
	la.err = noQuiescence(maxRounds)
}

// execute runs the armed lanes in lockstep. Per-lane outcomes land in
// lane.err; Metrics accumulate per lane exactly as a solo run would (see
// the file comment for the accounting argument).
func (e *multiEngine) execute(armed []*lane, maxRounds int) {
	// Per-lane init: reset the frontier state (an O(1) epoch bump), emit the
	// observer run boundary, and run the fused initial scan — the solo
	// engine's pre-run Done probe plus the initial NextWake registrations.
	for _, la := range armed {
		la.armed = false
		la.empty, la.deadSend = false, false
		fr := la.fr
		fr.reset()
		if la.nw.observer != nil {
			la.nw.observer(0, -1, -1, 0, WireView{})
		}
		for v, nd := range la.nw.nodes {
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
	}

	live := append(e.liveScratch[:0], armed...)
	defer func() { e.liveScratch = live[:0] }()
	round := 1
	for {
		// Lanes with no not-Done vertices at this boundary have quiesced —
		// the solo run returns here with the same frozen Metrics. Survivors
		// build their frontier for this round in the same pass.
		nl := live[:0]
		allIdle := true
		for _, la := range live {
			fr := la.fr
			if fr.notDone == 0 {
				continue
			}
			nl = append(nl, la)
			fr.build(round)
			if !fr.preSampled {
				fr.samplePre()
			}
			if fr.curCount > 0 {
				allIdle = false
			}
		}
		live = nl
		if len(live) == 0 {
			return
		}

		if allIdle {
			// Global gap: skip to the earliest wake of any lane in O(1),
			// accounting each lane's skipped rounds exactly like its solo
			// gap skip; lanes with no wake due by maxRounds fail now with
			// the solo timeout outcome.
			w := 0
			nl := live[:0]
			for _, la := range live {
				lw := la.fr.nextWakeRound()
				if lw == 0 || lw > maxRounds {
					failIdleLane(la, round, maxRounds)
					continue
				}
				if w == 0 || lw < w {
					w = lw
				}
				nl = append(nl, la)
			}
			live = nl
			if len(live) == 0 {
				return
			}
			for _, la := range live {
				m := &la.nw.metrics
				m.DroppedRounds += w - round
				m.Rounds = w - 1
				if la.fr.preMax > m.MaxStateBits {
					m.MaxStateBits = la.fr.preMax
				}
			}
			round = w
			continue
		}

		// Mixed round: idle lanes account this one round as an empty dense
		// round (or fail if no wake can ever come), active lanes execute.
		act := e.act[:0]
		nl = live[:0]
		for _, la := range live {
			if la.fr.curCount == 0 {
				lw := la.fr.nextWakeRound()
				if lw == 0 || lw > maxRounds {
					failIdleLane(la, round, maxRounds)
					continue
				}
				m := &la.nw.metrics
				m.DroppedRounds++
				m.Rounds = round
				if la.fr.preMax > m.MaxStateBits {
					m.MaxStateBits = la.fr.preMax
				}
			} else {
				act = append(act, la)
			}
			nl = append(nl, la)
		}
		live = nl

		if round > maxRounds {
			// Solo engines fail here without touching Metrics (Rounds still
			// names the last executed round).
			for _, la := range act {
				la.err = noQuiescence(maxRounds)
			}
			live = live[:0]
			return
		}

		sendSize := 0
		for _, la := range act {
			la.nw.metrics.Rounds = round
			la.deadSend = false
			sendSize += la.fr.curCount
		}
		e.round = round
		e.act = act

		e.runPhase(mphaseSend, sendSize)

		// Lanes that failed validation go dead before the receive half, like
		// the solo abort; survivors deliver and register wakes.
		nact := act
		if e.finishSend() {
			nact = act[:0]
			for _, la := range act {
				if la.deadSend {
					continue
				}
				nact = append(nact, la)
			}
			nl := live[:0]
			for _, la := range live {
				if !la.deadSend {
					nl = append(nl, la)
				}
			}
			live = nl
			e.act = nact
		}

		if len(nact) > 0 {
			recvSize := 0
			if e.k > 1 {
				recvSize = sendSize
				for _, la := range nact {
					for w := range e.ws {
						recvSize += len(e.ws[w].obs[la.idx].touched)
					}
				}
			}
			e.runPhase(mphaseRecv, recvSize)
			e.finishRecv()
		}
		round++
	}
}

// sendShardM runs the fused Send half for worker w: one pass over the
// union of the active lanes' frontiers within the worker's shard, executing
// each visited vertex once per lane whose frontier holds it. Iteration is
// ascending, so every lane's delivery buffers stay canonically ordered
// exactly as in its solo run.
func (e *multiEngine) sendShardM(w int) {
	st := &e.ws[w]
	for _, la := range e.act {
		st.obs[la.idx].beginRound(e.round)
	}
	wlo, whi := e.geo.shardWords(w)
	if wlo >= whi {
		return
	}
	// Hoist every per-lane header the inner loops touch into worker-local
	// scratch: the per-(vertex, lane) membership test becomes one indexed
	// load of a cached word instead of a la -> fr -> bitset -> words chain
	// re-derived at every level of the scan (the chain dominated the fused
	// profile). The appends stay within the capacity fixed at build time,
	// so steady-state rounds allocate nothing.
	act := e.act
	lobs, lnodes := st.lobs[:0], st.lnodes[:0]
	curW, curS := st.curW[:0], st.curS[:0]
	for _, la := range act {
		lobs = append(lobs, st.obs[la.idx])
		lnodes = append(lnodes, la.nw.nodes)
		curW = append(curW, la.fr.cur.words)
		curS = append(curS, la.fr.cur.sum)
	}
	st.lobs, st.lnodes, st.curW, st.curS = lobs, lnodes, curW, curS
	lw := st.lw[:len(act)]
	round, envs := e.round, e.envs
	for si := wlo >> 6; si < (whi+63)>>6; si++ {
		var sw uint64
		for _, s := range curS {
			sw |= s[si]
		}
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			var uw uint64
			for i, ws := range curW {
				lwv := ws[wi]
				lw[i] = lwv
				uw |= lwv
			}
			for uw != 0 {
				tz := bits.TrailingZeros64(uw)
				uw &= uw - 1
				v := wi<<6 + tz
				mask := uint64(1) << uint(tz)
				envs[v].Round = round
				for i := range lw {
					if lw[i]&mask == 0 {
						continue
					}
					ob := lobs[i]
					if ob.err != nil {
						continue // this lane's shard stopped at its first offense
					}
					ob.begin(v)
					lnodes[i][v].Send(&envs[v], ob)
					if la := act[i]; la.outs != nil {
						la.outs[v] = append(la.outs[v][:0], ob.msgs...)
					}
				}
			}
		}
	}
}

// finishSend folds the send half per lane at the round barrier: canonical
// error selection (smallest sender id across the lane's worker outboxes),
// metric fold, the empty-round flag, and the lane's observer replay — each
// identical to the solo engine's finishSend over that lane alone. It
// reports whether any lane failed validation this round.
func (e *multiEngine) finishSend() (anyDead bool) {
	for _, la := range e.act {
		errW := -1
		var sent, bitsTotal, maxEdge int
		for w := range e.ws {
			ob := e.ws[w].obs[la.idx]
			if ob.err != nil && (errW < 0 || ob.errSender < e.ws[errW].obs[la.idx].errSender) {
				errW = w
			}
			sent += ob.sent()
			bitsTotal += ob.bitsTotal
			if ob.maxEdge > maxEdge {
				maxEdge = ob.maxEdge
			}
		}
		if errW >= 0 {
			// The solo run aborts here: the failing round's partial traffic
			// is not folded and its messages are never observed.
			la.err = e.ws[errW].obs[la.idx].err
			la.deadSend = true
			anyDead = true
			continue
		}
		m := &la.nw.metrics
		m.Messages += sent
		m.Bits += bitsTotal
		if maxEdge > m.MaxEdgeBits {
			m.MaxEdgeBits = maxEdge
		}
		la.empty = sent == 0
		if la.empty {
			m.DroppedRounds++
		}
		if obs := la.nw.observer; obs != nil {
			cur := la.fr.cur
			for si := range cur.sum {
				sw := cur.sum[si]
				for sw != 0 {
					wi := si<<6 + bits.TrailingZeros64(sw)
					sw &= sw - 1
					word := cur.words[wi]
					for word != 0 {
						v := wi<<6 + bits.TrailingZeros64(word)
						word &= word - 1
						for i := range la.outs[v] {
							r := &la.outs[v][i]
							obs(e.round, v, r.to, r.bits, r.wire)
						}
					}
				}
			}
		}
	}
	return anyDead
}

// recvShardM runs the fused Receive half for worker w: each active lane's
// shard receivers are claimed into that lane's next frontier, then one pass
// over the union of the lanes' receive sets (cur|nxt per lane) executes
// each vertex once per member lane — inbox merge, state sampling, Done
// delta and NextWake registration all against that lane's own state,
// exactly as in recvShardF.
func (e *multiEngine) recvShardM(w int) {
	st := &e.ws[w]
	act := e.act
	for _, la := range act {
		st.maxState[la.idx], st.maxInbox[la.idx] = 0, 0
		la.fr.addDelta[w], la.fr.doneDelta[w] = 0, 0
	}
	wlo, whi := e.geo.shardWords(w)
	if wlo >= whi {
		return
	}
	k := e.k
	for _, la := range act {
		// Dense lanes skip the claim: their frontier is already every
		// vertex, so receivers add nothing.
		if la.empty || la.dense {
			continue
		}
		li := la.idx
		added := 0
		nxt := la.fr.nxt
		if k == 1 {
			// One worker owns every vertex: no range test needed.
			for _, to := range st.obs[li].touched {
				if nxt.add(to) {
					added++
				}
			}
		} else {
			vlo, vhi := int32(wlo<<6), int32(whi<<6)
			for ww := range e.ws {
				for _, to := range e.ws[ww].obs[li].touched {
					if to >= vlo && to < vhi && nxt.add(to) {
						added++
					}
				}
			}
		}
		la.fr.addDelta[w] = added
	}
	// The same hoists as sendShardM; the receive set is cur|nxt per lane,
	// so the scratch word is the OR of the two cached headers' words. The
	// claim pass above only touches this worker's word range (shards are
	// summary-aligned), so the cached nxt headers are stable for the scan.
	lnodes, lfr := st.lnodes[:0], st.lfr[:0]
	ldone, lsch, lsiz := st.ldone[:0], st.lsch[:0], st.lsiz[:0]
	curW, nxtW := st.curW[:0], st.nxtW[:0]
	curS, nxtS := st.curS[:0], st.nxtS[:0]
	lobx := st.lobx[:0]
	for _, la := range act {
		fr := la.fr
		lnodes = append(lnodes, la.nw.nodes)
		lfr = append(lfr, fr)
		ldone = append(ldone, fr.done)
		lsch = append(lsch, fr.scheds)
		lsiz = append(lsiz, fr.sizers)
		curW = append(curW, fr.cur.words)
		nxtW = append(nxtW, fr.nxt.words)
		curS = append(curS, fr.cur.sum)
		nxtS = append(nxtS, fr.nxt.sum)
		for ww := 0; ww < k; ww++ {
			lobx = append(lobx, e.ws[ww].obs[la.idx])
		}
	}
	st.lnodes, st.lfr, st.ldone, st.lsch, st.lsiz = lnodes, lfr, ldone, lsch, lsiz
	st.curW, st.nxtW, st.curS, st.nxtS, st.lobx = curW, nxtW, curS, nxtS, lobx
	lw := st.lw[:len(act)]
	heads := st.heads
	maxState, maxInbox := st.maxState, st.maxInbox
	round, envs := e.round, e.envs
	for si := wlo >> 6; si < (whi+63)>>6; si++ {
		var sw uint64
		for i := range curS {
			sw |= curS[i][si] | nxtS[i][si]
		}
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			var uw uint64
			for i := range curW {
				lwv := curW[i][wi] | nxtW[i][wi]
				lw[i] = lwv
				uw |= lwv
			}
			for uw != 0 {
				tz := bits.TrailingZeros64(uw)
				uw &= uw - 1
				v := wi<<6 + tz
				mask := uint64(1) << uint(tz)
				envs[v].Round = round
				env := &envs[v]
				for i, la := range act {
					if lw[i]&mask == 0 {
						continue
					}
					var inbox []Inbound
					if !la.empty {
						inbox = gatherChains(lobx[i*k:i*k+k], heads, v, st.inbox[:0])
						st.inbox = inbox
					}
					li := la.idx
					if len(inbox) > maxInbox[li] {
						maxInbox[li] = len(inbox)
					}
					nd := lnodes[i][v]
					nd.Receive(env, inbox)
					if s := lsiz[i][v]; s != nil {
						if b := s.StateBits(); b > maxState[li] {
							maxState[li] = b
						}
					}
					if d := nd.Done(); d != ldone[i][v] {
						ldone[i][v] = d
						fr := lfr[i]
						if d {
							fr.doneDelta[w]--
						} else {
							fr.doneDelta[w]++
						}
					}
					if sc := lsch[i][v]; sc != nil {
						fr := lfr[i]
						if fr.register(w, int32(v), sc.NextWake(env, round), round) {
							fr.addDelta[w]++
						}
					}
				}
			}
		}
	}
}

// finishRecv folds the receive half per lane, exactly like finishRecvF
// folds a solo lane: metric maxima, the incremental Done count, the next
// frontier size, and the pre-sampled state maximum.
func (e *multiEngine) finishRecv() {
	for _, la := range e.act {
		m := &la.nw.metrics
		fr := la.fr
		for w := range e.ws {
			st := &e.ws[w]
			if st.maxState[la.idx] > m.MaxStateBits {
				m.MaxStateBits = st.maxState[la.idx]
			}
			if st.maxInbox[la.idx] > m.MaxInboxSize {
				m.MaxInboxSize = st.maxInbox[la.idx]
			}
			fr.notDone += fr.doneDelta[w]
			fr.nxtCount += fr.addDelta[w]
		}
		if fr.preMax > m.MaxStateBits {
			m.MaxStateBits = fr.preMax
		}
	}
}
