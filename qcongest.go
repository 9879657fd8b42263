// Package qcongest is the public API of this reproduction of "Sublinear-
// Time Quantum Computation of the Diameter in CONGEST Networks" (Le Gall &
// Magniez, PODC 2018).
//
// The package exposes four layers:
//
//   - graph construction and generators (Graph, NewGraph, Path, ...);
//   - the classical CONGEST baselines (ClassicalExactDiameter — the O(n)
//     algorithm of [PRT12], ClassicalApproxDiameter — the Õ(sqrt(n)+D)
//     3/2-approximation of [HPRW14]);
//   - the paper's quantum algorithms (QuantumExactDiameter — Theorem 1,
//     Õ(sqrt(nD)) rounds; QuantumExactDiameterSimple — the Section 3.1
//     variant; QuantumApproxDiameter — Theorem 4, Õ(cbrt(nD)+D) rounds) and
//     the distance-parameter suite built on the same Evaluation machinery
//     (Radius, Eccentricities, WeightedDiameter, WeightedRadius — with
//     weighted graphs via WithWeights / Graph.AddWeightedEdge);
//   - the lower-bound machinery (NewHW12Reduction, NewACHK16Reduction,
//     BlockedGroverDisj, the G_d simulation of Theorem 11).
//
// All four layers execute on the shared CONGEST round engine
// (internal/congest): a frontier scheduler over a packed CSR topology that
// executes, each round, only the vertices that can act (message receivers,
// self-scheduled programs, and — conservatively — programs without the
// activity contract), on the goroutine that runs the network. The execution
// is bit-for-bit deterministic. Every message is a typed wire message
// encoded to real bits, and all bandwidth accounting is derived from the
// encoded lengths (see the CONGEST programming layer below: CongestNode,
// Outbox, WireMessage, RegisterMessageKind). Engine options (WithBandwidth,
// WithStrictAccounting) are accepted by every classical entry point and by
// the Engine field of QuantumOptions.
//
// Repeated executions run on sessions (CongestTopology, CongestSession,
// Pool): the network is built once and every further run is a
// Reset-and-rerun on recycled state, bit-identical to a fresh build.
// The quantum algorithms amortize all per-Evaluation setup this way;
// QuantumOptions.Parallel is the one batching mechanism: it runs
// independent Evaluations concurrently on cloned sessions (Pool),
// deterministically, like every other knob, and by default runs one
// context per CPU.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper's claims.
package qcongest

import (
	"math/rand"

	"qcongest/internal/bitstring"
	"qcongest/internal/comm"
	"qcongest/internal/congest"
	"qcongest/internal/core"
	"qcongest/internal/experiments"
	"qcongest/internal/graph"
	"qcongest/internal/reduction"
	"qcongest/internal/simulation"
)

// Graph is an undirected network topology.
type Graph = graph.Graph

// Graph constructors.
var (
	// NewGraph returns an empty graph with n vertices.
	NewGraph = graph.New
	// Path, Cycle, Star, Complete, Grid, Torus, Hypercube and
	// CompleteBinaryTree build the standard families. Hypercube errors on a
	// dimension outside [0, 26], the range whose edges fit the engine's
	// int32 adjacency arrays.
	Path               = graph.Path
	Cycle              = graph.Cycle
	Star               = graph.Star
	Complete           = graph.Complete
	Grid               = graph.Grid
	Torus              = graph.Torus
	Hypercube          = graph.Hypercube
	CompleteBinaryTree = graph.CompleteBinaryTree
	// Barbell, Caterpillar, RandomConnected, RandomTree, RandomRegular,
	// SmallWorld and LollipopWithDiameter build experiment workloads.
	Barbell              = graph.Barbell
	Caterpillar          = graph.Caterpillar
	RandomConnected      = graph.RandomConnected
	RandomTree           = graph.RandomTree
	RandomRegular        = graph.RandomRegular
	SmallWorld           = graph.SmallWorld
	LollipopWithDiameter = graph.LollipopWithDiameter
	// WithWeights returns a weighted copy of a graph with uniform random
	// edge weights in [1, maxW]; the weighted distance-parameter suite
	// (Radius, Eccentricities, WeightedDiameter, the Dijkstra /
	// FloydWarshall oracles) follows the graph's metric.
	WithWeights = graph.WithWeights
)

// CSR is the packed, read-only adjacency form of a graph: three flat int32
// arrays instead of per-vertex slices, the compact representation the
// scale path runs on.
type CSR = graph.CSR

// EdgeStream enumerates a graph's undirected edges through a callback; it
// must be deterministic and re-runnable (BuildCSRFromStream runs it twice).
type EdgeStream = graph.EdgeStream

// Streamed graph construction: the O(1)-allocations-per-graph build path
// for topologies too large to materialize as per-vertex adjacency slices.
var (
	// BuildCSRFromStream packs the edges an EdgeStream emits straight into
	// CSR arenas (degree pass, then placement) — a 10M-vertex grid builds
	// in seconds with three array allocations.
	BuildCSRFromStream = graph.BuildCSRFromStream
	// GridEdges and PathEdges are the standard-family edge streams.
	GridEdges = graph.GridEdges
	PathEdges = graph.PathEdges
)

// ClassicalResult is the outcome of a classical CONGEST algorithm run.
type ClassicalResult = congest.ExactResult

// EngineOption configures the CONGEST round engine (bandwidth, observers,
// strict accounting). Every option is deterministic:
// for a fixed seed the computed outputs, round counts and Metrics are
// identical whatever the engine configuration, with the sole exception of
// WithBandwidth, which changes the model itself.
type EngineOption = congest.Option

// CongestScheduled is the optional activity contract a custom node program
// implements to benefit from frontier scheduling: NextWake, asked after
// every execution of the vertex (a message's Receive included), reports the
// next round the vertex must run — round+1 whenever its next Send would
// emit or change state, such as a relay of what it just received — or
// congest.NeverWake while nothing is pending. A message is received in the
// round it is sent whatever the answer; it schedules no later round by
// itself. Programs that do not implement it are executed every round.
type CongestScheduled = congest.Scheduled

// Engine options.
var (
	// WithBandwidth overrides the per-edge per-round bit budget.
	WithBandwidth = congest.WithBandwidth
	// WithStrictAccounting cross-checks the declared size formulas of
	// external kinds (WireBitsDeclarer) against encoded lengths and fails
	// on mismatch; built-in widths are derived, so they match by
	// construction.
	WithStrictAccounting = congest.WithStrictAccounting
	// WithCongestObserver installs a per-delivery callback that sees each
	// message's encoded bits (used by the lower-bound transcripts).
	WithCongestObserver = congest.WithObserver
)

// The CONGEST programming layer: write node programs against typed wire
// messages and run them on the shared deterministic engine. Every message
// a program emits is encoded to real bits (kind tag + payload, widths
// derived from n), and all bandwidth accounting is the encoded length —
// declared sizes are never trusted.
type (
	// CongestNetwork couples a graph with one node program per vertex.
	CongestNetwork = congest.Network
	// CongestNode is a per-node program (Send/Receive/Done).
	CongestNode = congest.Node
	// CongestEnv is the read-only per-node view the engine passes in.
	CongestEnv = congest.Env
	// CongestMetrics aggregates the measured cost of a run.
	CongestMetrics = congest.Metrics
	// Outbox stages a node's outbound messages; Put encodes immediately.
	Outbox = congest.Outbox
	// Inbound is a received message; Decode unpacks its payload.
	Inbound = congest.Inbound
	// WireMessage is the marshalling contract every message implements.
	WireMessage = congest.WireMessage
	// WireBitsDeclarer optionally states a size formula, which strict
	// accounting verifies against the encoding. Only external kinds need
	// it: the built-in kinds derive their widths from their field lists.
	WireBitsDeclarer = congest.BitsDeclarer
	// WireWriter / WireReader are the packed bit codecs of the format.
	WireWriter = congest.Writer
	WireReader = congest.Reader
	// WireView is a read-only window onto one encoded message.
	WireView = congest.WireView
	// MessageKind tags a wire-message type; kinds 20..31 are free for
	// external programs.
	MessageKind = congest.Kind
)

// Execution sessions: the reusable-harness layer. A CongestTopology caches
// everything derived from a graph (validated once, shared freely); a
// CongestSession[T] builds a network of T programs and its engine once and
// re-runs it via Reset — bit-for-bit identical to a fresh network — which
// is how the quantum algorithms amortize setup over the hundreds of
// Evaluations an optimization performs. The inputs of the next run are
// fields of the programs: write them through Node or Nodes, then Reset and
// Run. A Pool clones session-backed contexts to run
// independent executions concurrently with deterministic result ordering.
// See DESIGN.md, "Execution sessions".
type (
	// CongestTopology is the validated, shareable view of a graph.
	CongestTopology = congest.Topology
	// CongestResettable is the lifecycle contract reusable node programs
	// implement: ResetNode() restores the constructed state from the
	// program's input fields.
	CongestResettable = congest.Resettable
)

// CongestSession is a build-once, reset-and-rerun network of T programs.
type CongestSession[T CongestResettable] = congest.Session[T]

// NewCongestSession builds a reusable session whose vertex v runs make(v).
func NewCongestSession[T CongestResettable](topo *CongestTopology, make func(v int) T, opts ...EngineOption) *CongestSession[T] {
	return congest.NewSession(topo, make, opts...)
}

// Pool runs independent jobs concurrently on cloned execution contexts;
// results are keyed by job index and the error reported is the one at the
// smallest failing index, so outcomes are deterministic regardless of
// scheduling.
type Pool[C any] = congest.Pool[C]

// NewPool builds a pool of `workers` contexts produced by factory.
func NewPool[C any](workers int, factory func(i int) (C, error)) (*Pool[C], error) {
	return congest.NewPool(workers, factory)
}

// Session helpers.
var (
	// NewCongestTopology validates a graph and caches its adjacency tables.
	NewCongestTopology = congest.NewTopology
	// NewCongestTopologyFromCSR builds a topology straight from a packed
	// CSR (see BuildCSRFromStream) without materializing a Graph.
	NewCongestTopologyFromCSR = congest.NewTopologyFromCSR
	// NewCongestNetworkOn builds a one-shot network on a cached topology.
	NewCongestNetworkOn = congest.NewNetworkOn
	// ParallelForEach runs jobs on up to `workers` goroutines with the
	// Pool's determinism contract.
	ParallelForEach = congest.ForEach
)

// Wire-format helpers.
var (
	// NewCongestNetwork builds a network of node programs over a graph.
	NewCongestNetwork = congest.NewNetwork
	// RegisterMessageKind registers a custom message kind with a name and
	// a decode factory; the engine refuses unregistered kinds.
	RegisterMessageKind = congest.RegisterKind
	// BitsForID returns the bits needed to name one of n values (0 for
	// n <= 1).
	BitsForID = congest.BitsForID
	// DefaultCongestBandwidth is the per-edge per-round budget used when
	// none is configured: Theta(log n).
	DefaultCongestBandwidth = congest.DefaultBandwidth
)

// ClassicalExactDiameter computes the exact diameter with the classical
// O(n)-round baseline of [PRT12] (Table 1 row 1, classical column).
func ClassicalExactDiameter(g *Graph, opts ...EngineOption) (ClassicalResult, error) {
	return congest.ClassicalExactDiameter(g, opts...)
}

// ClassicalApproxDiameter computes the [HPRW14] 3/2-approximation in
// Õ(sqrt(n)+D) rounds. s <= 0 selects the default sample size sqrt(n).
func ClassicalApproxDiameter(g *Graph, s int, seed int64, opts ...EngineOption) (ClassicalResult, error) {
	return congest.ClassicalApproxDiameter(g, s, seed, opts...)
}

// QuantumResult is the outcome of a quantum diameter computation.
type QuantumResult = core.Result

// QuantumOptions configures the quantum algorithms. Its Parallel field is
// the number of cloned evaluation contexts: 0 (the default) runs
// min(GOMAXPROCS, Evaluations to run) contexts, 1 evaluates sequentially,
// and k > 1 runs k contexts. The Result is identical for every value.
type QuantumOptions = core.Options

// QuantumExactDiameter runs the paper's main algorithm (Theorem 1):
// exact diameter in Õ(sqrt(n·D)) rounds with O((log n)^2) qubits per node.
func QuantumExactDiameter(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.ExactDiameter(g, opts)
}

// QuantumExactDiameterSimple runs the Section 3.1 variant: Õ(sqrt(n)·D)
// rounds.
func QuantumExactDiameterSimple(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.ExactDiameterSimple(g, opts)
}

// QuantumApproxDiameter runs the Theorem 4 algorithm: a 3/2-approximation
// in Õ(cbrt(n·D) + D) rounds.
func QuantumApproxDiameter(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.ApproxDiameter(g, opts)
}

// The distance-parameter suite: the same Figure 2 Evaluation machinery
// generalized beyond the diameter (radius, all eccentricities, weighted
// graphs — the directions of the Wang–Wu–Yao and Wu–Yao follow-ups). Radius
// and Eccentricities follow the graph's metric: hop distances on unweighted
// graphs, weighted distances on graphs built with AddWeightedEdge or
// WithWeights.

// Radius computes the exact radius by quantum minimum finding over the
// per-vertex eccentricity Evaluations (Õ(sqrt(n)·D) rounds unweighted).
func Radius(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.Radius(g, opts)
}

// WeightedDiameter computes the exact weighted diameter by quantum maximum
// finding over Bellman–Ford-based weighted eccentricity Evaluations. On an
// unweighted graph it degenerates to the hop diameter.
func WeightedDiameter(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.WeightedDiameter(g, opts)
}

// WeightedRadius is WeightedDiameter's minimization twin.
func WeightedRadius(g *Graph, opts QuantumOptions) (QuantumResult, error) {
	return core.WeightedRadius(g, opts)
}

// ApspResult reports an all-pairs shortest-paths sweep with its measured
// CONGEST cost; the Θ(n²) distance table itself is streamed to the APSP
// callback row by row, never materialized.
type ApspResult = core.ApspResult

// APSP computes exact all-pairs weighted shortest-path distances through
// the skeleton distance oracle (the Wang–Wu–Yao / Wu–Yao sublinear
// Evaluation): Õ(sqrt(n) + D) rounds per source after an Õ(sqrt(n)·(sqrt(n)
// + D))-round preprocessing. Rows arrive in source order through
// emit(source, row); the row slice is reused between calls (copy to
// retain), and a nil emit runs the sweep for its round accounting only.
// QuantumOptions.Parallel shards the sweep over cloned sessions without
// changing any emitted value. Setting QuantumOptions.Sublinear routes
// WeightedDiameter, WeightedRadius and weighted Eccentricities through the
// same oracle.
func APSP(g *Graph, opts QuantumOptions, emit func(source int, row []int) error) (ApspResult, error) {
	return core.APSP(g, opts, emit)
}

// EccentricitiesResult reports a full eccentricity vector with its measured
// CONGEST cost.
type EccentricitiesResult = core.EccResult

// Eccentricities computes the eccentricity of every vertex by one Evaluation
// per vertex on reused sessions; QuantumOptions.Parallel batches the
// independent Evaluations onto cloned sessions deterministically.
func Eccentricities(g *Graph, opts QuantumOptions) (EccentricitiesResult, error) {
	return core.Eccentricities(g, opts)
}

// The query-framework workloads: beyond distance parameters, any vertex-local
// predicate or value family with an input-independent Evaluation cost can be
// searched, counted, or minimized by the same quantum machinery
// (internal/query). Triangle detection and the minimum tree cut are the two
// built-in examples.

// TriangleResult reports a triangle search or count with its measured cost.
type TriangleResult = core.TriangleResult

// TriangleDetect decides whether the graph contains a triangle by quantum
// search over the vertex-local triangle predicate (one adjacency probe during
// preprocessing, one convergecast per Evaluation).
func TriangleDetect(g *Graph, opts QuantumOptions) (TriangleResult, error) {
	return core.TriangleDetect(g, opts)
}

// TriangleCount lists every vertex lying on a triangle by the quantum
// search-and-exclude loop over the same predicate.
func TriangleCount(g *Graph, opts QuantumOptions) (TriangleResult, error) {
	return core.TriangleCount(g, opts)
}

// CutResult reports a minimum tree cut with its measured cost.
type CutResult = core.CutResult

// MinTreeCut computes the minimum-weight BFS-tree cut by quantum minimum
// finding over the per-subtree crossing weights (a mark flood plus a sum
// convergecast per Evaluation).
func MinTreeCut(g *Graph, opts QuantumOptions) (CutResult, error) {
	return core.MinTreeCut(g, opts)
}

// ClassicalEccentricities computes every vertex's eccentricity classically
// in Theta(n) rounds (the all-initiator wave of [PRT12]).
func ClassicalEccentricities(g *Graph, opts ...EngineOption) ([]int, CongestMetrics, error) {
	return congest.ClassicalEccentricities(g, opts...)
}

// ClassicalWeightedDiameter computes the exact weighted diameter classically
// (one Bellman–Ford Evaluation per vertex on a reused session, Theta(n^2)
// rounds).
func ClassicalWeightedDiameter(g *Graph, opts ...EngineOption) (ClassicalResult, error) {
	return congest.ClassicalWeightedDiameter(g, opts...)
}

// Bits is a packed bit vector (two-party protocol input).
type Bits = bitstring.Bits

// Bit-vector helpers.
var (
	NewBits                = bitstring.New
	BitsFromString         = bitstring.FromString
	Disj                   = bitstring.Disj
	RandomDisjointPair     = bitstring.RandomDisjointPair
	RandomIntersectingPair = bitstring.RandomIntersectingPair
)

// CommMetrics tallies two-party protocol costs.
type CommMetrics = comm.Metrics

// ClassicalDisj runs the trivial k-bit classical protocol.
func ClassicalDisj(x, y *Bits) (int, CommMetrics, error) {
	return comm.ClassicalDisj(x, y)
}

// BlockedGroverDisj runs the bounded-interaction quantum protocol whose
// cost realizes the Theorem 5 tradeoff Õ(k/r + r).
func BlockedGroverDisj(x, y *Bits, blocks int, rng *rand.Rand) (comm.GroverDisjResult, error) {
	return comm.BlockedGroverDisj(x, y, blocks, rng)
}

// MeasureDisjTradeoff sweeps message budgets and reports the measured
// communication curve.
var MeasureDisjTradeoff = comm.MeasureTradeoff

// Reduction is a (b, k, d1, d2)-reduction from disjointness to diameter
// computation (Definition 3).
type Reduction = reduction.Reduction

// Lower-bound constructions and experiments.
var (
	// NewHW12Reduction builds the (Theta(n), Theta(n^2), 2, 3)-reduction
	// of Theorem 8 (Figure 4).
	NewHW12Reduction = reduction.NewHW12
	// NewACHK16Reduction builds the (Theta(log n), Theta(n), 4, 5)-
	// reduction of Theorem 9.
	NewACHK16Reduction = reduction.NewACHK16
	// PathNetwork builds the network G_d of Figure 5.
	PathNetwork = reduction.PathNetwork
	// BuildSubdivided builds G'_n(x, y) of Figure 8.
	BuildSubdivided = reduction.BuildSubdivided
	// TwoPartyFromCongest converts a CONGEST diameter run on Gn(x, y)
	// into a two-party DISJ protocol (Theorem 10).
	TwoPartyFromCongest = reduction.TwoPartyFromCongest
)

// RelayAlgorithm builds a concrete computation on G_d for the Theorem 11
// simulation experiments.
var RelayAlgorithm = simulation.NewRelayAlgorithm

// PathAlgorithm is an r-round computation on the path network G_d.
type PathAlgorithm = simulation.Algorithm

// Experiment drivers (Table 1 and figures); see internal/experiments.
var (
	ExactComparison  = experiments.ExactComparison
	ApproxComparison = experiments.ApproxComparison
	DiameterSweep    = experiments.DiameterSweep
	SuiteComparison  = experiments.SuiteComparison
	Lemma1Coverage   = experiments.Lemma1Coverage
	FormatTable      = experiments.FormatTable
	// FitPower and CrossoverN fit measured round curves and extrapolate
	// the classical/quantum crossover point.
	FitPower   = experiments.FitPower
	CrossoverN = experiments.CrossoverN
)

// Series is a named sweep of round measurements.
type Series = experiments.Series

// Point is one measurement of a sweep.
type Point = experiments.Point
