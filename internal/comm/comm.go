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

	"qcongest/internal/bitstring"
	"qcongest/internal/qsim"
)

// Metrics tallies the cost of a two-party protocol run.
type Metrics struct {
	Messages  int // messages exchanged (alternating Alice/Bob)
	Qubits    int // total qubits (or bits, for classical protocols) sent
	MaxQubits int // largest single message
}

func (m *Metrics) send(q int) {
	m.Messages++
	m.Qubits += q
	if q > m.MaxQubits {
		m.MaxQubits = q
	}
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
	m.send(x.Len()) // Alice -> Bob: x
	m.send(1)       // Bob -> Alice: DISJ(x, y)
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
// The final classical verification (Alice ships the witness block) is
// included in the metrics.
func BlockedGroverDisj(x, y *bitstring.Bits, blocks int, rng *rand.Rand) (GroverDisjResult, error) {
	res := GroverDisjResult{Witness: -1}
	k := x.Len()
	if y.Len() != k {
		return res, fmt.Errorf("comm: input lengths %d vs %d", k, y.Len())
	}
	if k == 0 {
		res.Disj = 1
		return res, nil
	}
	if blocks < 1 {
		blocks = 1
	}
	if blocks > k {
		blocks = k
	}
	blockSize := (k + blocks - 1) / blocks
	msgQubits := bitsFor(blocks) + blockSize + 1

	blockIntersects := func(b int) bool {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > k {
			hi = k
		}
		for i := lo; i < hi; i++ {
			if x.Get(i) && y.Get(i) {
				return true
			}
		}
		return false
	}

	labels := make([]int, blocks)
	for i := range labels {
		labels[i] = i
	}
	phi, err := qsim.NewUniform(labels)
	if err != nil {
		return res, err
	}

	// BBHT amplitude amplification; every Grover iteration queries the
	// distributed oracle once (Alice -> Bob -> Alice).
	budget := int(6*math.Sqrt(float64(blocks))) + 12
	mVal := 1.0
	const lambda = 1.2
	for iter := 0; iter < budget; {
		j := rng.Intn(int(mVal) + 1)
		if j > budget-iter {
			j = budget - iter
		}
		s := phi.Clone()
		for i := 0; i < j; i++ {
			res.Metrics.send(msgQubits) // Alice -> Bob: label + block
			res.Metrics.send(msgQubits) // Bob -> Alice: marked reply
			s.GroverIteration(phi, blockIntersects)
		}
		iter += j
		b := s.Measure(rng)
		// Classical verification of the candidate block.
		res.Metrics.send(bitsFor(blocks) + blockSize) // Alice -> Bob
		res.Metrics.send(1 + bitsFor(k))              // Bob -> Alice: verdict + witness
		if blockIntersects(b) {
			res.Disj = 0
			lo := b * blockSize
			for i := lo; i < lo+blockSize && i < k; i++ {
				if x.Get(i) && y.Get(i) {
					res.Witness = i
					break
				}
			}
			return res, nil
		}
		mVal = math.Min(lambda*mVal, math.Sqrt(float64(blocks))*2)
		if j == 0 && mVal < 1.5 {
			mVal = 1.5
		}
	}
	// Budget exhausted without finding an intersecting block: declare
	// disjoint. For actually-disjoint inputs this is always correct; for
	// intersecting inputs the failure probability is exponentially small
	// in the budget constant.
	res.Disj = 1
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
// each point averages over trials.
func MeasureTradeoff(k int, budgets []int, trials int, seed int64) ([]TradeoffPoint, error) {
	if k < 4 {
		return nil, errors.New("comm: k too small")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]TradeoffPoint, 0, len(budgets))
	for _, r := range budgets {
		blocks := (r / 4) * (r / 4)
		if blocks < 1 {
			blocks = 1
		}
		if blocks > k {
			blocks = k
		}
		var totalMsgs, totalQubits int
		for i := 0; i < trials; i++ {
			x, y := bitstring.RandomIntersectingPair(k, rng)
			res, err := BlockedGroverDisj(x, y, blocks, rng)
			if err != nil {
				return nil, err
			}
			if res.Disj != 0 {
				// Count failed runs too; they still cost communication.
				// (Failures are rare; correctness is tested separately.)
				_ = res
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
