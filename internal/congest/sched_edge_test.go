package congest

import (
	"fmt"
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
// a steady state where Reset+Run allocates nothing — the registration
// arenas, bucket heaps and bitsets are all reused across re-runs rather
// than regrown.
func TestSessionWakeArenaSteadyState(t *testing.T) {
	topo, err := NewTopology(graph.Path(4096))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(topo, func(v int) *dupWakeNode { return &dupWakeNode{pulses: 4, target: 24} })
	defer sess.Close()
	runOnce := func() {
		if err := sess.Reset(); err != nil {
			t.Fatal(err)
		}
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
