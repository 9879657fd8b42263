package congest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// This file pins the frontier scheduler's wake-registration edge cases to
// RunReference: duplicate NextWake registrations for the same
// (round, vertex), registrations that are later superseded (leaving stale
// bucket entries and possibly a phantom wake round the frontier must skip
// like any idle round), wakes scheduled past the run's round budget, and
// the all-quiescent network that goes straight to timeout. Every case is
// checked bit-identical between RunReference and Run.

// dupWakeNode re-registers the same target round on every execution:
// vertex 0 pulses its neighbors for a few rounds, and every receive (plus
// the initial scan) registers the identical (target, vertex) wake again.
// The scheduler must coalesce the duplicates — one execution at target,
// not one per registration.
type dupWakeNode struct {
	pulses int // vertex 0 broadcasts at rounds 1..pulses
	target int // the wake round everyone keeps re-registering
	seen   int
	done   bool
	tx     msgChild
}

func (d *dupWakeNode) Send(env *Env, out *Outbox) {
	if env.ID == 0 && env.Round <= d.pulses {
		out.Broadcast(env.Neighbors, &d.tx)
	}
}

func (d *dupWakeNode) Receive(env *Env, inbox []Inbound) {
	d.seen += len(inbox)
	if env.Round >= d.target {
		d.done = true
	}
}

func (d *dupWakeNode) Done() bool     { return d.done }
func (d *dupWakeNode) StateBits() int { return 64 + d.seen }
func (d *dupWakeNode) NextWake(env *Env, round int) int {
	if d.done {
		return NeverWake
	}
	if env.ID == 0 && round < d.pulses {
		return round + 1
	}
	if d.target > round {
		return d.target
	}
	return round + 1
}

func (d *dupWakeNode) ResetNode() {
	d.seen, d.done = 0, false
}

// flipWakeNode alternates its registration between two future rounds on
// every execution, so earlier registrations are superseded: the scheduler
// is left holding stale bucket entries for rounds nobody wants anymore.
// On Path(2) the near round becomes a pure phantom — every registration
// for it was retracted — and the frontier must account the phantom
// exactly like an empty round of RunReference.
type flipWakeNode struct {
	pulses    int // vertex 0 broadcasts at rounds 1..pulses
	near, far int // the two alternating wake targets, near < far
	seen      int
	done      bool
	tx        msgChild
}

func (f *flipWakeNode) Send(env *Env, out *Outbox) {
	if env.ID == 0 && env.Round <= f.pulses {
		out.Broadcast(env.Neighbors, &f.tx)
	}
}

func (f *flipWakeNode) Receive(env *Env, inbox []Inbound) {
	f.seen += len(inbox)
	if env.Round >= f.far {
		f.done = true
	}
}

func (f *flipWakeNode) Done() bool     { return f.done }
func (f *flipWakeNode) StateBits() int { return 64 + f.seen }
func (f *flipWakeNode) NextWake(env *Env, round int) int {
	if f.done {
		return NeverWake
	}
	if env.ID == 0 {
		if round < f.pulses {
			return round + 1
		}
		return f.far
	}
	if round%2 == 0 {
		if f.near > round {
			return f.near
		}
		return round + 1
	}
	return f.far
}

func (f *flipWakeNode) ResetNode() {
	f.seen, f.done = 0, false
}

// sleeperNode never wakes, never sends and never finishes: the network is
// quiescent with no pending wakes at all, so the frontier scheduler skips
// straight from round 1 to the timeout.
type sleeperNode struct{}

func (s *sleeperNode) Send(env *Env, out *Outbox)        {}
func (s *sleeperNode) Receive(env *Env, inbox []Inbound) {}
func (s *sleeperNode) Done() bool                        { return false }
func (s *sleeperNode) StateBits() int                    { return 64 }
func (s *sleeperNode) NextWake(env *Env, round int) int  { return NeverWake }

func wakeEdgeFingerprint(nw *Network, n int) string {
	var sb strings.Builder
	for v := 0; v < n; v++ {
		switch p := nw.Node(v).(type) {
		case *dupWakeNode:
			fmt.Fprintf(&sb, "%d/%v;", p.seen, p.done)
		case *flipWakeNode:
			fmt.Fprintf(&sb, "%d/%v;", p.seen, p.done)
		case *sleeperNode:
			sb.WriteString("z;")
		}
	}
	return sb.String()
}

// TestSchedulerWakeEdgeCases runs each edge-case program on RunReference
// and on Run and requires identical outputs, Metrics and
// errors — including the timeout rows, where the error string must match
// byte for byte.
func TestSchedulerWakeEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		make      func(v int) Node
		maxRounds int
		wantErr   bool
	}{
		{
			// Duplicate (round, vertex) registrations: the initial scan
			// registers target for every vertex, then every pulse receive
			// re-registers the same target for vertex 1.
			name: "duplicate-registrations", g: graph.Path(40),
			make:      func(v int) Node { return &dupWakeNode{pulses: 4, target: 10} },
			maxRounds: 30,
		},
		{
			// Superseded registrations leave stale entries for the near
			// round while real wakes still exist there (other vertices).
			name: "superseded-registrations", g: graph.Path(40),
			make:      func(v int) Node { return &flipWakeNode{pulses: 4, near: 8, far: 11} },
			maxRounds: 30,
		},
		{
			// Path(2): every registration for the near round is retracted,
			// making it a pure phantom wake round the frontier drains
			// empty and must skip with reference-identical accounting.
			name: "phantom-wake-round", g: graph.Path(2),
			make:      func(v int) Node { return &flipWakeNode{pulses: 4, near: 8, far: 11} },
			maxRounds: 30,
		},
		{
			// Every wake is registered past the round budget: the frontier
			// sees an empty horizon and must time out exactly like
			// RunReference grinding through empty rounds.
			name: "wakes-past-max-rounds", g: graph.Path(40),
			make:      func(v int) Node { return &dupWakeNode{pulses: 0, target: 100} },
			maxRounds: 12, wantErr: true,
		},
		{
			// No wakes at all, nobody Done: all-quiescent gap straight to
			// the timeout.
			name: "quiescent-to-timeout", g: graph.Path(40),
			make:      func(v int) Node { return &sleeperNode{} },
			maxRounds: 15, wantErr: true,
		},
	}
	for _, tc := range cases {
		n := tc.g.N()
		run := func(run func(*Network, int) error) (string, Metrics, error) {
			nw, err := NewNetwork(tc.g, tc.make)
			if err != nil {
				t.Fatal(err)
			}
			runErr := run(nw, tc.maxRounds)
			return wakeEdgeFingerprint(nw, n), nw.Metrics(), runErr
		}
		wantOut, wantM, wantErr := run((*Network).RunReference)
		if (wantErr != nil) != tc.wantErr {
			t.Fatalf("%s: reference err = %v, want error %v", tc.name, wantErr, tc.wantErr)
		}
		gotOut, gotM, gotErr := run((*Network).Run)
		if gotOut != wantOut {
			t.Errorf("%s: Run outputs differ from RunReference", tc.name)
		}
		if gotM != wantM {
			t.Errorf("%s: Run Metrics = %+v, reference %+v", tc.name, gotM, wantM)
		}
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: Run err %v, reference err %v", tc.name, gotErr, wantErr)
		}
	}
}

// TestSessionWakeArenaSteadyState is the wake-structure growth regression
// test: a persistent Session at non-trivial n, run repeatedly, must reach
// a steady state where Run allocates nothing — the registration
// arenas, bucket heaps and bitsets are all reused across re-runs rather
// than regrown.
func TestSessionWakeArenaSteadyState(t *testing.T) {
	topo, err := NewTopology(graph.Path(4096))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(topo, func(v int) *dupWakeNode { return &dupWakeNode{pulses: 4, target: 24} })
	runOnce := func() {
		if err := sess.Run(40); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up as TestEvalSteadyStateAllocs does: the first runs grow the
	// arenas to their high-water marks, and the runtime fills its
	// type-assertion caches at random moments early in a process.
	for i := 0; i < 5; i++ {
		runOnce()
	}
	if allocs := testing.AllocsPerRun(10, runOnce); allocs > 0 {
		t.Errorf("%.1f allocs per session re-run, want 0 (wake arenas must be reused)", allocs)
	}
}

// holdAfter is what a reception does to a holdWakeNode's pending timer.
type holdAfter int

const (
	holdKeep   holdAfter = iota // keep the timer: answer the same far round again
	holdMove                    // move the timer to a different far round
	holdCancel                  // cancel the timer: answer NeverWake
)

// holdWakeNode holds a far timer wake X until a reception makes it answer
// round+1: vertex 0 pulses its neighbors in rounds [from, from+pulses), and
// every reception makes the receiver relay once, next round, to its
// higher-numbered neighbors. After the relay the vertex answers per after:
// X again, the moved round, or NeverWake. These are the answers the
// frontier's liveness rule has to get right: a next-round wake leaves the
// far registration live, so the repeated X must not be lost, and the
// moved or cancelled one must not fire.
type holdWakeNode struct {
	from, pulses int
	x, moved     int // the initial timer and holdMove's new one
	after        holdAfter

	timer        int // the pending timer round; 0 once fired or cancelled
	seen, relays int
	firedAt      int
	pending      bool
	tx           msgChild
}

func newHoldWakeNode(from, pulses, x, moved int, after holdAfter) *holdWakeNode {
	h := &holdWakeNode{from: from, pulses: pulses, x: x, moved: moved, after: after}
	h.ResetNode()
	return h
}

func (h *holdWakeNode) pulsing(round int) bool {
	return round >= h.from && round < h.from+h.pulses
}

func (h *holdWakeNode) Send(env *Env, out *Outbox) {
	if env.ID == 0 && h.pulsing(env.Round) {
		out.Broadcast(env.Neighbors, &h.tx)
	}
	if h.pending {
		h.pending = false
		h.relays++
		for _, u := range env.Neighbors {
			if u > env.ID {
				out.Put(u, &h.tx)
			}
		}
	}
}

func (h *holdWakeNode) Receive(env *Env, inbox []Inbound) {
	if len(inbox) > 0 {
		h.seen += len(inbox)
		h.pending = true
		if h.timer != 0 {
			switch h.after {
			case holdMove:
				h.timer = h.moved
			case holdCancel:
				h.timer = 0
			}
		}
	}
	if h.timer == env.Round {
		h.firedAt, h.timer = env.Round, 0
	}
}

func (h *holdWakeNode) Done() bool { return h.timer == 0 && !h.pending }

func (h *holdWakeNode) StateBits() int {
	b := 64 + h.seen
	if h.pending {
		b += 8
	}
	return b
}

func (h *holdWakeNode) NextWake(env *Env, round int) int {
	if h.pending {
		return round + 1
	}
	if env.ID == 0 && round+1 < h.from+h.pulses {
		return max(h.from, round+1) // the next pulse
	}
	if h.timer > round {
		return h.timer
	}
	return NeverWake
}

func (h *holdWakeNode) ResetNode() {
	h.timer, h.seen, h.relays, h.firedAt, h.pending = h.x, 0, 0, 0, false
}

// TestNearWakeKeepsFarRegistration pins the wake queue's liveness rule
// against RunReference: a vertex holding a far wake X is made to answer
// round+1 by a reception, and then answers X again, a different far round
// or NeverWake — or answers X as a near wake from round X-1, so bucket X
// drains a vertex that is already in the frontier. Each case must match
// the reference on a fresh Run and on two Session re-runs: outputs,
// Metrics (DroppedRounds and MaxStateBits included) and the observer trace.
func TestNearWakeKeepsFarRegistration(t *testing.T) {
	rnd, err := NewTopology(graph.RandomConnected(40, 0.08, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := func(n int) *Topology {
		topo, err := NewTopology(graph.Path(n))
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	fingerprint := func(at func(v int) Node, n int) string {
		var sb strings.Builder
		for v := 0; v < n; v++ {
			h := at(v).(*holdWakeNode)
			fmt.Fprintf(&sb, "%d/%d/%d/%d;", h.seen, h.relays, h.firedAt, h.timer)
		}
		return sb.String()
	}
	for _, c := range []struct {
		name         string
		topo         *Topology
		from, pulses int
		x, moved     int
		after        holdAfter
	}{
		// The relays end long before X: every receiver answers X again
		// after its relay, and the idle gap up to X is skipped.
		{name: "same-far-round", topo: path(12), from: 1, pulses: 3, x: 20, after: holdKeep},
		{name: "same-far-round/random", topo: rnd, from: 2, pulses: 2, x: 30, after: holdKeep},
		// Receivers move their timer to 26: bucket 20 keeps their stale
		// entries beside vertex 0's live one.
		{name: "different-far-round", topo: path(12), from: 1, pulses: 3, x: 20, moved: 26, after: holdMove},
		{name: "different-far-round/random", topo: rnd, from: 2, pulses: 2, x: 30, moved: 24, after: holdMove},
		// Receivers cancel: only vertex 0's timer fires.
		{name: "never-wake", topo: path(12), from: 1, pulses: 3, x: 20, after: holdCancel},
		{name: "never-wake/random", topo: rnd, from: 2, pulses: 2, x: 30, after: holdCancel},
		// The relay front crosses X = 10 on a 40-vertex path: vertices 8
		// and 9 answer round 10 as a near wake while their far
		// registration for 10 is live, and the vertices past 10 fire
		// before the front reaches them.
		{name: "near-answer-at-x-minus-1", topo: path(40), from: 1, pulses: 3, x: 10, after: holdKeep},
	} {
		sc := schedCase{
			name: c.name, topo: c.topo, maxRounds: 80, fingerprint: fingerprint,
			make: func(v int) Node { return newHoldWakeNode(c.from, c.pulses, c.x, c.moved, c.after) },
		}
		auditWakes(t, sc)
		checkSchedCase(t, sc)
	}
}

// TestWaveWakeArenaBound is the wake queue's growth regression test, by
// counts rather than timing. In the all-initiator wave of
// ClassicalExactDiameter every vertex holds a far wake (its initiation
// round, later the Duration timer) while relaying every wave it receives.
// A relay's next-round wake must leave that far registration live, so the
// arena holds one entry per distinct far answer: at most 2n entries in at
// most n buckets. Re-registering after every relay made the arena grow
// with every reception: 52,445 entries in up to 18,191 pending buckets on
// this graph. An EccSession Evaluation's wave, with the sparse tau' of a
// Figure 2 walk, is bounded the same way (1,510-1,949 entries before).
func TestWaveWakeArenaBound(t *testing.T) {
	g, err := graph.RandomRegular(256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	topo := mustTopology(t, g)
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	tourLen := 2 * (n - 1)
	tau, _, err := TokenWalkOn(topo, info, info.Children, info.Leader, tourLen)
	if err != nil {
		t.Fatal(err)
	}

	// The classical wave, as classicalEccPhases runs it. The observer
	// samples the bucket heap once per message, after the round's drain
	// (Run builds the engine before the first observer call).
	duration := 2*tourLen + 2*info.D + 2
	var wave *Session[*WaveNode]
	peak := 0
	wave = NewSession(topo, func(v int) *WaveNode {
		return NewWaveNode(true, tau[v], duration)
	}, WithObserver(func(round, from, to, bits int, wire WireView) {
		peak = max(peak, len(wave.e.fr.heap))
	}))
	if err := wave.Run(duration + 4); err != nil {
		t.Fatal(err)
	}
	if got := len(wave.e.fr.wakeVs); got > 2*n {
		t.Errorf("all-initiator wave: %d wake arena entries, want at most 2n = %d", got, 2*n)
	}
	if peak == 0 || peak > n {
		t.Errorf("all-initiator wave: bucket heap peaked at %d buckets, want 1..n = %d", peak, n)
	}

	ecc := NewEccSession(topo, info, 6*info.D+2)
	walk := NewWalkSession(topo, info, info.Children, 2*info.D)
	for _, u0 := range []int{0, n / 2, n - 1} {
		tau, _, err := walk.Eval(u0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ecc.Eval(tau); err != nil {
			t.Fatal(err)
		}
		if got := len(ecc.wave.e.fr.wakeVs); got > 2*n {
			t.Errorf("EccSession Evaluation (u0 %d): %d wave arena entries, want at most 2n = %d", u0, got, 2*n)
		}
	}
}

// timerNode sleeps on up to two far rounds set as inputs before each Run:
// the vertex turns Done once executed at or after doneAt (never when
// doneAt is 0), and its timer fires once executed at or after timer (never
// when 0), relaying one message to its neighbors the round after. Its
// NextWake answers the earlier of the two rounds still pending, and keeps
// answering the timer after the vertex is Done, so a run can end with that
// registration live. Eager vertices run round 1 whatever their rounds;
// the others' initial state, which is larger, is only sampled before
// their first execution.
type timerNode struct {
	doneAt, timer int
	eager         bool

	done, pend bool
	fired      int
	seen       int
	tx         msgChild
}

func (n *timerNode) Send(env *Env, out *Outbox) {
	if n.pend {
		n.pend = false
		out.Broadcast(env.Neighbors, &n.tx)
	}
}

func (n *timerNode) Receive(env *Env, inbox []Inbound) {
	n.seen += len(inbox)
	if n.timer != 0 && n.fired == 0 && env.Round >= n.timer {
		n.fired, n.pend = env.Round, true
	}
	if n.doneAt != 0 && env.Round >= n.doneAt {
		n.done = true
	}
}

func (n *timerNode) Done() bool { return n.done && !n.pend }

func (n *timerNode) StateBits() int {
	if n.fired == 0 && !n.eager {
		return 96 + n.seen
	}
	return 64 + n.seen
}

func (n *timerNode) NextWake(env *Env, round int) int {
	if n.pend || (round == 0 && n.eager) {
		return round + 1
	}
	wk := NeverWake
	if !n.done && n.doneAt > round {
		wk = n.doneAt
	}
	if n.fired == 0 && n.timer > round && (wk == NeverWake || n.timer < wk) {
		wk = n.timer
	}
	return wk
}

func (n *timerNode) ResetNode() {
	n.done, n.pend, n.fired, n.seen = false, false, 0, 0
}

// TestSessionWakeReuse pins the reuse of the wake array across the
// executions of one Session. Each scenario's first run ends with far
// registrations still live, either because every vertex turned Done while
// holding its timer or at the no-quiescence error; later runs register the
// same far rounds and different ones, which must fire as on a fresh
// network. Far answers of maxRounds+1, 2^31 and math.MaxInt lie beyond
// any round budget and must behave as in RunReference too. Every run must
// match RunReference on a fresh network: outputs, Metrics and error.
func TestSessionWakeReuse(t *testing.T) {
	topo := mustTopology(t, graph.RandomConnected(30, 0.1, 3))
	type input struct {
		doneAt, timer func(v int) int
		maxRounds     int
		wantErr       bool
	}
	fingerprint := func(node func(v int) *timerNode) string {
		var sb strings.Builder
		for v := 0; v < topo.N(); v++ {
			nd := node(v)
			fmt.Fprintf(&sb, "%d/%d/%v;", nd.seen, nd.fired, nd.done)
		}
		return sb.String()
	}
	at := func(r int) func(int) int { return func(int) int { return r } }
	spread := func(base, step int) func(int) int { return func(v int) int { return base + step*(v%3) } }
	const never = 0
	for _, sc := range []struct {
		name string
		runs []input
	}{
		{name: "done-with-live-timers", runs: []input{
			{doneAt: at(1), timer: at(40), maxRounds: 60},
			{doneAt: at(40), timer: at(40), maxRounds: 60},
			{doneAt: spread(30, 4), timer: spread(25, 5), maxRounds: 60},
		}},
		{name: "timeout-with-live-timers", runs: []input{
			{doneAt: at(never), timer: at(35), maxRounds: 30, wantErr: true},
			{doneAt: at(35), timer: at(35), maxRounds: 60},
			{doneAt: spread(20, 3), timer: spread(12, 7), maxRounds: 60},
		}},
		{name: "timers-past-any-budget", runs: []input{
			{doneAt: at(never), timer: at(31), maxRounds: 30, wantErr: true},
			{doneAt: at(never), timer: at(1 << 31), maxRounds: 30, wantErr: true},
			{doneAt: at(3), timer: at(1 << 31), maxRounds: 30},
			{doneAt: at(never), timer: at(math.MaxInt), maxRounds: 30, wantErr: true},
			{doneAt: at(3), timer: at(math.MaxInt), maxRounds: 30},
			{doneAt: spread(10, 1), timer: spread(9, 2), maxRounds: 30},
		}},
	} {
		sess := NewSession(topo, func(v int) *timerNode { return &timerNode{eager: v%3 != 0} })
		for i, in := range sc.runs {
			set := func(nd *timerNode, v int) { nd.doneAt, nd.timer = in.doneAt(v), in.timer(v) }
			ref := NewNetworkOn(topo, func(v int) Node {
				nd := &timerNode{eager: v%3 != 0}
				set(nd, v)
				return nd
			})
			refErr := ref.RunReference(in.maxRounds)
			if (refErr != nil) != in.wantErr {
				t.Fatalf("%s run %d: reference err = %v, want error %v", sc.name, i+1, refErr, in.wantErr)
			}
			for v, nd := range sess.Nodes() {
				set(nd, v)
			}
			err := sess.Run(in.maxRounds)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Errorf("%s run %d: err %v, reference err %v", sc.name, i+1, err, refErr)
			}
			if i == 0 && !slices.ContainsFunc(sess.e.fr.wake, func(r int32) bool { return r != 0 }) {
				t.Fatalf("%s: run 1 left no far registration live", sc.name)
			}
			if got, want := fingerprint(sess.Node), fingerprint(func(v int) *timerNode { return ref.Node(v).(*timerNode) }); got != want {
				t.Errorf("%s run %d: outputs differ from RunReference", sc.name, i+1)
			}
			if got, want := sess.Metrics(), ref.Metrics(); got != want {
				t.Errorf("%s run %d: Metrics = %+v, reference %+v", sc.name, i+1, got, want)
			}
		}
	}
}
