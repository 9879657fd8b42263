// Package congest simulates the classical CONGEST model of Section 2.1 of
// the paper: a synchronous network where, in every round, each node may send
// one message of O(log n) bits to each neighbor.
//
// # Round semantics
//
// Rounds are numbered 1, 2, 3, ... In round r every node first sends
// messages (computed from its state, which reflects everything received in
// rounds < r) and then receives all messages sent to it in round r. A node
// program implements both halves via Send and Receive. The engine stops at
// the first round boundary at which every node reports Done; the number of
// executed rounds is the algorithm's round complexity.
//
// # Bandwidth accounting
//
// Messages are typed wire messages (see wire.go): a node emits them through
// Outbox.Put, the engine marshals each one into a packed bit arena, and the
// message's cost is its encoded length — kind tag plus payload — in bits.
// Nothing is declared and trusted: Metrics.Bits, Metrics.MaxEdgeBits and
// the bandwidth checks are all derived from the encoding, and the engine
// enforces that the total encoded bits sent over each directed edge in a
// round never exceed the configured bandwidth (default Θ(log n)).
// Violations fail the run, so passing tests prove the congestion claims
// (e.g. the paper's Lemma 4) over real bit counts. WithStrictAccounting
// additionally cross-checks the declared size formula (BitsDeclarer) of
// external message kinds against the encoded length; built-in kinds derive
// their widths from the field list that also encodes them.
//
// # Execution engine
//
// Run executes one network on one goroutine, the caller's: each round it
// runs the Send half for the frontier's vertices in ascending order into
// one Outbox (arena, edge-bit ledger, per-receiver delivery chains), then
// the Receive half. Ascending senders make each receiver's chain the
// canonical inbox (ascending sender, emission order within a sender), the
// observer's replay order and the reported validation error (the smallest
// failing sender's) exactly what RunReference produces, so a run is
// bit-for-bit deterministic: outputs, round counts, Metrics, observer
// traces and error messages. Encoded messages live in a recycled arena, so
// steady-state rounds allocate nothing. Parallelism lives above the engine:
// independent executions run on cloned sessions (Pool), as many as
// Contexts grants from GOMAXPROCS.
//
// Rounds are frontier-scheduled (see scheduler.go): only vertices whose
// program scheduled the round (the Scheduled contract's NextWake, asked
// after every execution, including the Receive a message triggers) or
// that lack the contract entirely are executed — bit-identical to
// RunReference, which executes every vertex every round, but wall-clock
// scales with the algorithm's total work instead of n·rounds. The
// adjacency the engine runs on is a packed CSR core built once per
// Topology (flat offset/arena arrays; Env.Neighbors slices are views into
// the arena, and the per-message destination check is a binary search on
// the packed row). DESIGN.md ("Execution engine", "Scheduler", "Wire
// format") documents the concurrency model, the determinism argument and
// the message encodings in full.
//
// # Execution sessions
//
// Callers that execute the same program family many times (the quantum
// algorithms run one Evaluation per Grover iteration) should not rebuild
// the network each time: a Topology caches everything derived from the
// graph, a Session owns the network plus a persistent engine and re-runs
// it via Reset — bit-identical to a fresh build — and a Pool clones
// session-backed contexts for concurrent independent executions with
// deterministic results. See session.go, evalsession.go and DESIGN.md
// ("Execution sessions").
//
// The programs of one network run one call at a time, on the goroutine
// that runs it; the programs of cloned sessions run concurrently with each
// other, so a program family must not share mutable state across the
// networks it is built for (all programs in this repository are pure
// per-vertex state machines). The inbox slice passed to Receive, and the
// *Env passed to every program call, are only valid for the duration of
// the call and must not be retained.
package congest

import (
	"fmt"

	"qcongest/internal/graph"
)

// Inbound is a message as seen by its receiver: the sender, the decoded
// kind tag, the encoded length in bits (tag included), and the encoded
// payload, which Decode unpacks into a typed message.
type Inbound struct {
	From int
	Kind Kind
	Bits int

	wire WireView
}

// Decode unpacks the message payload into m, whose WireKind must equal the
// inbound kind. The env must be the one the engine passed to Receive (it
// holds the engine's decode scratch, which is what keeps the receive path
// allocation-free); decode into a reusable struct for the same
// reason.
func (in *Inbound) Decode(env *Env, m WireMessage) error {
	if k := m.WireKind(); k != in.Kind {
		return fmt.Errorf("congest: cannot decode %v message into %v", in.Kind, k)
	}
	// Single-word fast path for the built-in kinds: the whole message fits
	// one uint64, so the payload is one shift-and-mask away. unpack accepts
	// exactly the payloads the field-by-field decode accepts cleanly; on
	// false we fall through to the generic path, which reproduces the
	// canonical error.
	if fm, fast := m.(fieldMessage); fast && in.wire.bits <= 64 {
		if fm.fields(env.N).unpack(in.wire.word()>>KindBits, int(in.wire.bits)-KindBits) {
			return nil
		}
	}
	rd := &env.rd // rd.N is fixed to env.N by the engine
	rd.words = in.wire.words
	rd.off = int(in.wire.off) + KindBits
	rd.end = int(in.wire.off) + int(in.wire.bits)
	if rd.err != nil {
		rd.err = nil
	}
	m.UnmarshalWire(rd)
	if rd.err != nil {
		return rd.err
	}
	// The wire contract is exact: UnmarshalWire must consume every payload
	// bit MarshalWire wrote, or the codec pair is inconsistent.
	if left := rd.Remaining(); left != 0 {
		return fmt.Errorf("congest: %v decode left %d of %d payload bits unread", in.Kind, left, int(in.wire.bits)-KindBits)
	}
	return nil
}

// Wire returns the encoded message (kind tag included). Like the inbox, the
// view is only valid for the duration of the Receive call.
func (in *Inbound) Wire() WireView { return in.wire }

// stagedMsg is one staged message copy as the observer sees it.
type stagedMsg struct {
	from, to int
	bits     int
	wire     WireView
}

// stagedRec is one staged message copy in the Outbox's per-round SoA
// delivery queue: a compact record (the arena offset stands in for the
// 32-byte WireView, which delivery reconstructs) threaded into its
// receiver's chain through `next`.
type stagedRec struct {
	start int   // bit offset of the encoded copy in the arena
	from  int32 // sender
	next  int32 // next record for the same receiver; -1 ends the chain
	bits  int32 // encoded length, tag included
	kind  Kind
}

// destChain heads one receiver's chain of staged records: head1 is the
// first record's index plus one, so the zero value is the empty chain and a
// freshly allocated dest array needs no initialization. beginRound empties
// last round's chains through the touched list.
type destChain struct {
	head1, tail int32
}

// edgeCell is one directed edge's bit total for the current sender,
// stamp-checked against the per-sender serial: a cell is current iff its
// stamp equals edgeSerial, so the per-sender reset is one increment.
type edgeCell struct {
	stamp uint64
	bits  int32
}

// Outbox collects the messages a node sends in one round. Put marshals the
// message into the engine's bit arena immediately — the encoded length is
// the message's cost — validates the destination, the encoding, and the
// per-edge bandwidth budget, and stages a compact record into the delivery
// queue. After the first violation the Outbox goes inert and the run aborts
// with that error.
type Outbox struct {
	nw     *Network
	round  int
	sender int

	arena Writer

	// SoA delivery queue (DESIGN.md "Wire hot-path anatomy"): q holds one
	// record per staged copy in staging order; dest[to] heads receiver
	// `to`'s chain through q; touched lists the receivers first staged
	// this round, in staging order (the frontier claim pass iterates it,
	// and beginRound empties exactly those chains).
	q       []stagedRec
	dest    []destChain
	touched []int32

	// Observer support: the round's staged copies in staging order, kept
	// only when a run observer needs the canonical replay.
	keepMsgs bool
	msgs     []stagedMsg

	// Per-round accounting. The message count is derived at the end of the
	// send half (len(q)); only the bit total and the edge maximum are
	// tracked inline — the edge ledger is transient per sender, so its
	// maximum cannot be recovered later.
	bitsTotal int
	maxEdge   int
	err       error

	// Directed-edge bit ledger for the current sender, indexed by the
	// destination's position in the sender's neighbor row (so it is sized
	// to the maximum degree, not to n); edgeSerial is bumped by begin,
	// making the per-sender reset O(1) (edges are directed: no other
	// sender contributes to (v, to) totals).
	edge       []edgeCell
	edgeSerial uint64
}

func newOutbox(nw *Network) *Outbox {
	return &Outbox{
		nw:       nw,
		dest:     make([]destChain, nw.topo.n),
		keepMsgs: nw.observer != nil,
		edge:     make([]edgeCell, nw.topo.maxDeg),
	}
}

// beginRound resets the per-round state: the arena words and the delivery
// queue are recycled and last round's chains are emptied through the
// touched list, so steady-state rounds allocate nothing and the reset costs
// O(receivers), which staging already paid.
func (o *Outbox) beginRound(round int) {
	o.round = round
	o.sender = -1
	o.arena.Reset(o.nw.topo.n)
	o.q = o.q[:0]
	for _, to := range o.touched {
		o.dest[to] = destChain{}
	}
	o.touched = o.touched[:0]
	o.msgs = o.msgs[:0]
	o.bitsTotal = 0
	o.maxEdge = 0
	o.err = nil
	o.edgeSerial++
}

// begin starts staging for sender v; the serial bump is the O(1) per-edge
// ledger reset.
func (o *Outbox) begin(v int) {
	o.sender = v
	o.edgeSerial++
}

// encode marshals m (kind tag + payload) into the arena and returns its
// start offset and encoded length. ok is false after a validation failure.
//
// Built-in kinds whose encoding fits one word take the single-write fast
// path. A value out of range or a payload over one word falls through to
// the generic path below, which produces the canonical encodings and
// errors. Built-in widths are derived from their field lists, so strict
// accounting has only hand-written codecs (BitsDeclarer) left to verify.
func (o *Outbox) encode(m WireMessage) (start, bits int, k Kind, ok bool) {
	k = m.WireKind()
	if !Registered(k) {
		o.err = fmt.Errorf("congest: round %d: node %d sent a message of unregistered kind %d",
			o.round, o.sender, uint8(k))
		return 0, 0, k, false
	}
	start = o.arena.Len()
	if fm, fast := m.(fieldMessage); fast {
		if payload, width, pok := fm.fields(o.arena.N).pack(); pok {
			bits = KindBits + width
			o.arena.writeRaw(uint64(k)|payload<<KindBits, bits)
			return start, bits, k, true
		}
	}
	o.arena.WriteUint(uint64(k), KindBits)
	m.MarshalWire(&o.arena)
	if err := o.arena.Err(); err != nil {
		o.err = fmt.Errorf("congest: round %d: node %d: encoding %v message: %w",
			o.round, o.sender, k, err)
		return 0, 0, k, false
	}
	bits = o.arena.Len() - start
	if o.nw.strict {
		if d, isDecl := m.(BitsDeclarer); isDecl {
			if want := d.DeclaredBits(o.arena.N); want != bits {
				o.err = fmt.Errorf("congest: round %d: node %d: %v message declares %d bits but encodes to %d",
					o.round, o.sender, k, want, bits)
				return 0, 0, k, false
			}
		}
	}
	return start, bits, k, true
}

// stageTo validates the destination and the per-edge bandwidth for one copy
// of an encoded message and stages it into the delivery queue.
func (o *Outbox) stageTo(to int, k Kind, bits, start int) {
	if o.err != nil {
		return
	}
	i := o.nw.topo.neighborIndex(o.sender, to)
	if i < 0 {
		o.err = fmt.Errorf("congest: round %d: node %d sent to non-neighbor %d", o.round, o.sender, to)
		return
	}
	o.stageEdge(i, to, k, bits, start)
}

// stageEdge is stageTo for a destination already known to be the sender's
// neighbor at row position i (the Broadcast-to-neighbor-row fast path
// passes its loop index); the bandwidth ledger and the delivery staging
// are identical.
func (o *Outbox) stageEdge(i, to int, k Kind, bits, start int) {
	ec := &o.edge[i]
	eb := int32(bits)
	if ec.stamp == o.edgeSerial {
		eb += ec.bits
	} else {
		ec.stamp = o.edgeSerial
	}
	ec.bits = eb
	if int(eb) > o.nw.bandwidth {
		o.err = fmt.Errorf("congest: round %d: edge %d->%d exceeds bandwidth (%d > %d bits)",
			o.round, o.sender, to, eb, o.nw.bandwidth)
		return
	} else if int(eb) > o.maxEdge {
		o.maxEdge = int(eb)
	}
	rec := int32(len(o.q))
	dc := &o.dest[to]
	if dc.head1 != 0 {
		o.q[dc.tail].next = rec
	} else {
		dc.head1 = rec + 1
		o.touched = append(o.touched, int32(to))
	}
	dc.tail = rec
	o.q = append(o.q, stagedRec{start: start, from: int32(o.sender), next: -1, bits: int32(bits), kind: k})
	if o.keepMsgs {
		o.msgs = append(o.msgs, stagedMsg{from: o.sender, to: to, bits: bits, wire: o.arena.view(start, bits)})
	}
	o.bitsTotal += bits
}

// replay hands the round's staged copies to the observer in staging order.
func (o *Outbox) replay(obs Observer) {
	for i := range o.msgs {
		r := &o.msgs[i]
		obs(o.round, r.from, r.to, r.bits, r.wire)
	}
}

// sent returns the number of copies staged this round (derived from the
// queue at the end of the send half — the metrics-coalescing side of the
// SoA layout).
func (o *Outbox) sent() int { return len(o.q) }

// appendChain materializes receiver to's staged messages onto buf, in
// emission order. The views point into the outbox arena, which is stable
// until the next beginRound (i.e. across the whole receive half).
func (o *Outbox) appendChain(to int, buf []Inbound) []Inbound {
	for i := o.dest[to].head1 - 1; i >= 0; i = o.q[i].next {
		r := &o.q[i]
		buf = append(buf, Inbound{From: int(r.from), Kind: r.kind, Bits: int(r.bits), wire: o.arena.view(r.start, int(r.bits))})
	}
	return buf
}

// Put encodes and stages one message to neighbor `to`. The cost charged
// against the edge bandwidth is the encoded length in bits, kind tag
// included; there is no way to send bits the encoder did not produce.
func (o *Outbox) Put(to int, m WireMessage) {
	if o.err != nil {
		return
	}
	start, bits, k, ok := o.encode(m)
	if !ok {
		return
	}
	o.stageTo(to, k, bits, start)
}

// Broadcast sends the identical message to every target, in slice order.
// It is equivalent to calling Put once per target but marshals the message
// a single time — the natural emission for the flooding pattern most
// CONGEST algorithms use. Each copy is charged in full against its own
// edge.
func (o *Outbox) Broadcast(targets []int, m WireMessage) {
	if o.err != nil || len(targets) == 0 {
		return
	}
	start, bits, k, ok := o.encode(m)
	if !ok {
		return
	}
	// Flooding fast path: when targets is the sender's own neighbor row —
	// the idiomatic Broadcast(env.Neighbors, m) — or a prefix subslice of
	// it (env.Neighbors[:j] is still all neighbors), every destination is a
	// neighbor by construction and its row position is the loop index, so
	// the per-copy adjacency probe is skipped.
	// Identity is by slice identity (same base pointer as the topology row,
	// length within it), never by content, so no caller-built slice can
	// take the path. Non-prefix subslices (row[i:] for i > 0) have a
	// different base pointer and run through the validated path — correct,
	// just not fast.
	if row := o.nw.topo.neighbors[o.sender]; len(row) > 0 && len(targets) <= len(row) && &targets[0] == &row[0] {
		for i, to := range targets {
			if o.err != nil {
				return
			}
			o.stageEdge(i, to, k, bits, start)
		}
		return
	}
	for _, to := range targets {
		o.stageTo(to, k, bits, start)
	}
}

// Env is the read-only per-node view of the network that the engine passes
// to node programs: everything a CONGEST node is allowed to know a priori
// (its id, n, its incident edges) plus the current round number.
//
// The *Env a program receives is valid only for the duration of the call:
// the engine keeps one Env, not one per vertex, and re-points it at the
// next vertex it executes. Programs read what they need from it
// during Send, Receive or NextWake and never retain the pointer.
type Env struct {
	ID        int
	N         int
	Neighbors []int // ascending; must not be modified
	Round     int   // current round, starting at 1

	rd Reader // decode scratch used by Inbound.Decode, reset per message
}

// newEnv returns an Env for a network of n vertices, not yet bound to a
// vertex.
func newEnv(n int) Env { return Env{N: n, rd: Reader{N: n}} }

// bind points env at vertex v (whose sorted adjacency row is nbrs) in the
// given round and returns it, ready to pass to one program call. N and the
// decode scratch carry over: Decode resets the scratch per message.
func (env *Env) bind(v int, nbrs []int, round int) *Env {
	env.ID, env.Neighbors, env.Round = v, nbrs, round
	return env
}

// Node is a per-node program.
//
// Send emits the messages the node transmits this round through out.Put.
// Receive delivers the messages sent to the node this round; the inbox
// slice is owned by the engine and must not be retained after the call
// returns. Likewise the *Env passed to Send, Receive (and NextWake, see
// Scheduled) is valid only for the duration of the call: the engine
// re-binds its one Env to each vertex it executes. Done reports
// whether the node has fixed its output and has nothing further to send;
// once every node is Done at a round boundary the run stops.
//
// Cloned sessions run their programs concurrently (see the package
// comment), so a program must only touch its own per-vertex state and data
// that stays read-only for the whole run.
type Node interface {
	Send(env *Env, out *Outbox)
	Receive(env *Env, inbox []Inbound)
	Done() bool
}

// StateSizer is an optional interface: programs that implement it report
// their current local memory footprint in bits, which the engine tracks so
// tests can assert the paper's O(log n) space claims.
type StateSizer interface {
	StateBits() int
}

// Metrics aggregates the cost of a run. All bit counts are encoded wire
// lengths (kind tags included), never declared values.
type Metrics struct {
	Rounds       int // executed rounds
	Messages     int // total messages delivered
	Bits         int // total encoded bits delivered
	MaxEdgeBits  int // max encoded bits over a directed edge in one round
	MaxStateBits int // max per-node state bits observed (StateSizer nodes)
	MaxInboxSize int // max messages delivered to one node in one round

	// DroppedRounds counts rounds in which nothing was sent (idle rounds).
	// Run's frontier scheduler skips an all-idle round without executing
	// any vertex, but accounts it here — and advances Rounds over it —
	// exactly as if RunReference had executed it empty, so Metrics compare
	// bit-for-bit between the two (asserted by the DroppedRounds table
	// test).
	DroppedRounds int
}

// Add accumulates other into m (used when composing phases).
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.Messages += other.Messages
	m.Bits += other.Bits
	if other.MaxEdgeBits > m.MaxEdgeBits {
		m.MaxEdgeBits = other.MaxEdgeBits
	}
	if other.MaxStateBits > m.MaxStateBits {
		m.MaxStateBits = other.MaxStateBits
	}
	if other.MaxInboxSize > m.MaxInboxSize {
		m.MaxInboxSize = other.MaxInboxSize
	}
	m.DroppedRounds += other.DroppedRounds
}

// Observer receives every delivered message at the end of its round's send
// half, in canonical order, together with a view of its encoded bits. The view is
// only valid for the duration of the callback.
//
// At the start of every run (Run or RunReference) the engine additionally
// invokes the observer once with round = 0, from = to = -1 and an empty
// view — an explicit run boundary, so observers shared across a composed
// algorithm's phases (each phase restarts its round numbering at 1) can
// separate the phases without guessing from round regressions.
type Observer func(round, from, to, bits int, wire WireView)

// Network couples a graph with one program per node and runs them in
// synchronized rounds.
type Network struct {
	topo      *Topology
	nodes     []Node
	bandwidth int
	strict    bool
	metrics   Metrics
	observer  Observer
}

// DefaultBandwidth returns the bandwidth used when none is configured:
// 4*ceil(log2 n) + 16 bits, enough for a constant number of vertex ids or
// round counters plus their kind tags per message, i.e. the paper's
// bw = O(log n). The additive constant keeps two-counter messages legal on
// very small networks.
func DefaultBandwidth(n int) int {
	return 4*BitsForID(n) + 16
}

// Option configures a Network.
type Option func(*Network)

// WithBandwidth overrides the per-edge per-round bit budget.
func WithBandwidth(bw int) Option {
	return func(nw *Network) { nw.bandwidth = bw }
}

// WithWorkers is a no-op. The engine runs every network on one goroutine;
// parallelism comes from cloned contexts (Contexts, Pool). Its one caller
// is the benchmark's apsp-er256 workload (bench/workloads.go), which pins
// WithWorkers(1), already one worker on its 256-vertex graphs. It is
// deleted together with that pin, by ROADMAP item 3, which edits the
// benchmark.
func WithWorkers(int) Option {
	return func(*Network) {}
}

// WithStrictAccounting makes the engine cross-check, for every message
// whose type implements BitsDeclarer, the declared size formula against the
// actual encoded length, failing the run on any mismatch. Accounting always
// uses the encoded length. Only hand-written codecs (external kinds, and
// raw) declare formulas: a built-in kind's width is derived from the same
// field list as its encoding, so it matches by construction and is not
// re-checked.
func WithStrictAccounting() Option {
	return func(nw *Network) { nw.strict = true }
}

// WithObserver installs a callback invoked for every delivered message;
// used by the lower-bound experiments to capture the encoded traffic
// crossing a vertex-partition cut (Theorem 10's simulation argument). The
// callback is invoked on the goroutine running the network at the end of
// each send half, in canonical order (ascending sender id, then the
// sender's emission order). A failing round is never observed.
func WithObserver(fn Observer) Option {
	return func(nw *Network) { nw.observer = fn }
}

// NewNetwork builds a network for graph g where node v runs make(v). The
// graph must be connected (every algorithm in this repository assumes it).
// The connectivity check and the adjacency tables are computed here, once;
// callers that build many networks over the same graph should build a
// Topology once and use NewNetworkOn (or a Session) instead.
func NewNetwork(g *graph.Graph, make func(v int) Node, opts ...Option) (*Network, error) {
	topo, err := NewTopology(g)
	if err != nil {
		return nil, err
	}
	return NewNetworkOn(topo, make, opts...), nil
}

// NewNetworkOn builds a network over an already-validated topology; no part
// of the graph is re-scanned. Node v runs make(v).
func NewNetworkOn(topo *Topology, make func(v int) Node, opts ...Option) *Network {
	nw := &Network{
		topo:      topo,
		nodes:     make2(topo.n, make),
		bandwidth: DefaultBandwidth(topo.n),
	}
	for _, o := range opts {
		o(nw)
	}
	return nw
}

func make2(n int, f func(v int) Node) []Node {
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = f(v)
	}
	return nodes
}

// Node returns the program running at vertex v (for extracting outputs
// after a run).
func (nw *Network) Node(v int) Node { return nw.nodes[v] }

// Metrics returns the accumulated metrics of Run.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// Bandwidth returns the per-edge per-round bit budget in force.
func (nw *Network) Bandwidth() int { return nw.bandwidth }

// engine holds the per-run execution state of Run: the frontier, one
// Outbox, one Env re-bound to each vertex it executes and one inbox
// scratch. All of it persists across rounds, so steady-state rounds
// allocate nothing.
type engine struct {
	nw    *Network
	round int

	ob    *Outbox
	env   Env
	inbox []Inbound // reusable materialized inbox (one vertex at a time)

	fr *frontierState
}

func newEngine(nw *Network) *engine {
	return &engine{
		nw:  nw,
		ob:  newOutbox(nw),
		env: newEnv(nw.topo.n),
		fr:  newFrontierState(nw.topo.n, nw.nodes),
	}
}

// Run executes rounds until every node is Done, or fails after maxRounds.
//
// The execution runs on the calling goroutine and is deterministic (see the
// package comment). On a validation error the run aborts with the error
// RunReference reports; Metrics.Rounds names the failing round, and the
// failing round's partial traffic is not folded into the other Metrics
// fields.
//
// Run builds the execution engine (frontier, arena, buffers) from scratch.
// Callers that execute the same program family many times should use a
// Session, which keeps the engine alive and recycles all of it across
// executions.
func (nw *Network) Run(maxRounds int) error {
	return newEngine(nw).execute(maxRounds)
}

// RunReference is the original single-threaded engine, retained as the
// behavioral oracle: it executes every vertex every round, one at a time,
// and the equivalence tests assert that Run matches it bit for bit —
// outputs, Metrics, observer traces and errors. It shares the Outbox
// encoder with Run, so message encodings, derived bit accounting and
// validation errors are identical by construction; only the execution
// strategy differs (no frontier). New code should call Run.
func (nw *Network) RunReference(maxRounds int) error {
	n := nw.topo.n
	nbrs := nw.topo.neighbors
	env := newEnv(n) // one Env, re-bound before every program call
	ob := newOutbox(nw)
	var inbox []Inbound // materialized-inbox scratch, reused per vertex
	if nw.observer != nil {
		nw.observer(0, -1, -1, 0, WireView{}) // run boundary
	}

	for round := 1; ; round++ {
		allDone := true
		for _, nd := range nw.nodes {
			if !nd.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			return nil
		}
		if round > maxRounds {
			return fmt.Errorf("congest: no quiescence after %d rounds", maxRounds)
		}
		nw.metrics.Rounds = round

		// Send half. Iterating senders in ascending order makes every
		// delivery buffer canonically ordered by construction.
		ob.beginRound(round)
		for v, nd := range nw.nodes {
			ob.begin(v)
			nd.Send(env.bind(v, nbrs[v], round), ob)
			if ob.err != nil {
				return ob.err
			}
		}
		// Replayed after the send half exactly like Run does: a failing
		// round is never observed on either engine.
		if nw.observer != nil {
			ob.replay(nw.observer)
		}
		nw.metrics.Messages += ob.sent()
		nw.metrics.Bits += ob.bitsTotal
		if ob.maxEdge > nw.metrics.MaxEdgeBits {
			nw.metrics.MaxEdgeBits = ob.maxEdge
		}
		if ob.sent() == 0 {
			nw.metrics.DroppedRounds++
		}

		// Receive half. The single outbox's chains are already canonical
		// (ascending senders by construction); each inbox is materialized
		// into the reused scratch.
		for v, nd := range nw.nodes {
			in := ob.appendChain(v, inbox[:0])
			inbox = in
			if len(in) > nw.metrics.MaxInboxSize {
				nw.metrics.MaxInboxSize = len(in)
			}
			nd.Receive(env.bind(v, nbrs[v], round), in)
			if s, ok := nd.(StateSizer); ok {
				if b := s.StateBits(); b > nw.metrics.MaxStateBits {
					nw.metrics.MaxStateBits = b
				}
			}
		}
	}
}
