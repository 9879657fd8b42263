// Package comm implements the two-party communication-complexity framework
// of Section 2.2: Alice and Bob computing the disjointness function DISJ_k,
// with explicit message and qubit accounting.
//
// The package provides the classical baseline protocol and a quantum
// protocol with bounded interaction — a blocked distributed Grover search —
// whose cost realizes the Õ(k/r + r) tradeoff that Braverman et al.
// [BGK+15] (the paper's Theorem 5) prove optimal. The paper's lower bounds
// (Theorems 2 and 3) transport exactly this tradeoff to diameter
// computation through the reductions in internal/reduction.
package comm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"qcongest/internal/amplify"
	"qcongest/internal/bitstring"
	"qcongest/internal/qsim"
)

// Metrics tallies the cost of a two-party protocol run.
type Metrics struct {
	Messages  int // messages exchanged (alternating Alice/Bob)
	Qubits    int // total qubits (or bits, for classical protocols) sent
	MaxQubits int // largest single message
}

// send tallies times messages of q qubits each.
func (m *Metrics) send(q, times int) {
	if times < 1 {
		return
	}
	m.Messages += times
	m.Qubits += q * times
	m.MaxQubits = max(m.MaxQubits, q)
}

// ClassicalDisj runs the trivial classical protocol: Alice ships her whole
// input, Bob answers with the result. Two messages, k+1 bits — the Theta(k)
// communication baseline [KS92, Raz92].
func ClassicalDisj(x, y *bitstring.Bits) (int, Metrics, error) {
	result, err := bitstring.Disj(x, y)
	if err != nil {
		return 0, Metrics{}, fmt.Errorf("comm: %w", err)
	}
	var m Metrics
	m.send(x.Len(), 1) // Alice -> Bob: x
	m.send(1, 1)       // Bob -> Alice: DISJ(x, y)
	return result, m, nil
}

// GroverDisjResult reports a quantum protocol run.
type GroverDisjResult struct {
	Disj    int // 0 = intersecting, 1 = disjoint (paper convention)
	Witness int // a common index when Disj == 0, else -1
	Metrics Metrics
}

// BlockedGroverDisj computes DISJ_k with a bounded number of messages: the
// index set [k] is split into `blocks` blocks, and Alice amplitude-amplifies
// over block labels for a block whose restriction of x intersects y. Each
// oracle query costs one round trip in which Alice sends the block-label
// register plus her bits of the queried block (in superposition) and Bob
// returns them with the mark bit applied:
//
//	message size = ceil(log2 blocks) + ceil(k/blocks) + 1 qubits.
//
// With r messages the communication is O(r·(k/blocks + log blocks)); the
// amplification needs O(sqrt(blocks)) queries, so choosing blocks ≈ (r/4)^2
// realizes the [BGK+15]-optimal Õ(k/r + r) tradeoff, and blocks = k gives
// the Õ(sqrt(k)) protocol of [BCW98].
//
// The search is amplify.Search, the BBHT loop of Theorem 6, with a budget
// of 6·sqrt(blocks)+12 Grover iterations. The classical verification of
// each measured block (Alice ships the block) is included in the metrics.
// Nil inputs and a nil rng are errors.
func BlockedGroverDisj(x, y *bitstring.Bits, blocks int, rng *rand.Rand) (GroverDisjResult, error) {
	res := GroverDisjResult{Witness: -1}
	switch {
	case x == nil || y == nil:
		return res, errors.New("comm: nil input")
	case rng == nil:
		return res, errors.New("comm: nil rng")
	case x.Len() != y.Len():
		return res, fmt.Errorf("comm: input lengths %d vs %d", x.Len(), y.Len())
	}
	k := x.Len()
	if k == 0 {
		res.Disj = 1
		return res, nil
	}
	blocks = min(max(blocks, 1), k)
	blockSize := (k + blocks - 1) / blocks
	common := func(b int) int { // first common index of block b, or -1
		for i := b * blockSize; i < min((b+1)*blockSize, k); i++ {
			if x.Get(i) && y.Get(i) {
				return i
			}
		}
		return -1
	}

	labels := make([]int, blocks)
	for i := range labels {
		labels[i] = i
	}
	phi, err := qsim.NewUniform(labels)
	if err != nil {
		return res, err
	}
	b, c, err := amplify.Search(phi, func(b int) bool { return common(b) >= 0 }, int(6*math.Sqrt(float64(blocks)))+12, rng)
	switch {
	case err == nil:
		res.Witness = common(b)
	case errors.Is(err, amplify.ErrNotFound):
		// Budget exhausted without finding an intersecting block: declare
		// disjoint. For actually-disjoint inputs this is always correct;
		// for intersecting inputs the failure probability is exponentially
		// small in the budget constant.
		res.Disj = 1
	default:
		return res, err
	}
	// Every Grover iteration queries the distributed oracle once: Alice
	// sends the label and block, Bob returns the marked reply. Every
	// measurement is verified classically: Alice ships the candidate block,
	// Bob answers with the verdict and a witness.
	res.Metrics.send(bitsFor(blocks)+blockSize+1, 2*c.GroverIterations)
	res.Metrics.send(bitsFor(blocks)+blockSize, c.Measurements)
	res.Metrics.send(1+bitsFor(k), c.Measurements)
	return res, nil
}

// TradeoffPoint is one measured point of the message/communication
// tradeoff.
type TradeoffPoint struct {
	MessageBudget int // requested bound on interaction
	Blocks        int
	Messages      int // measured
	Qubits        int // measured
}

// MeasureTradeoff runs BlockedGroverDisj across message budgets and reports
// the measured communication, reproducing the Theorem 5 curve
// Õ(k/r + r). Inputs are random intersecting pairs (the hard case), and
// each point averages over trials >= 1 runs, failed ones included: they
// cost communication too.
func MeasureTradeoff(k int, budgets []int, trials int, seed int64) ([]TradeoffPoint, error) {
	if k < 4 {
		return nil, errors.New("comm: k too small")
	}
	if trials < 1 {
		return nil, fmt.Errorf("comm: trials %d < 1", trials)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]TradeoffPoint, 0, len(budgets))
	for _, r := range budgets {
		blocks := min(max((r/4)*(r/4), 1), k)
		var totalMsgs, totalQubits int
		for i := 0; i < trials; i++ {
			x, y := bitstring.RandomIntersectingPair(k, rng)
			res, err := BlockedGroverDisj(x, y, blocks, rng)
			if err != nil {
				return nil, err
			}
			totalMsgs += res.Metrics.Messages
			totalQubits += res.Metrics.Qubits
		}
		out = append(out, TradeoffPoint{
			MessageBudget: r,
			Blocks:        blocks,
			Messages:      totalMsgs / trials,
			Qubits:        totalQubits / trials,
		})
	}
	return out, nil
}

func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
