package reduction

import (
	"errors"
	"fmt"
	"math"

	"qcongest/internal/bitstring"
	"qcongest/internal/comm"
	"qcongest/internal/congest"
)

// SimulationResult reports the two-party protocol obtained from a CONGEST
// algorithm by the Theorem 10 argument.
type SimulationResult struct {
	Disj int // the DISJ value decided from the diameter
	// Rounds is the round complexity of the simulated CONGEST algorithm.
	Rounds int
	// Transcript is the concatenation of the encoded wire messages that
	// crossed the (Un, Vn) cut, in canonical delivery order — the actual
	// bit string Alice and Bob exchange to simulate the run. Its length IS
	// the communication cost; nothing here is a declared size.
	Transcript *bitstring.Bits
	// CutBits is Transcript.Len(): the total traffic that crossed the cut.
	CutBits int
	// Protocol is the induced two-party cost: 2 messages per round in
	// which cut traffic occurred (one per direction), each of size at most
	// b * bandwidth bits.
	Protocol comm.Metrics
}

// TwoPartyFromCongest implements the simulation of Theorem 10: Alice
// (holding the Un side and x) and Bob (holding the Vn side and y) jointly
// run the classical exact-diameter algorithm on Gn(x, y), exchanging only
// the traffic of the b cut edges. The observer copies every encoded message
// crossing the cut into the transcript bit-for-bit, so the decided DISJ
// value comes with the real communication string, not an estimate. The run
// fails if the algorithm's diameter output falls strictly between d1 and d2
// (impossible for a correct reduction). A nil reduction or input is an
// error.
func TwoPartyFromCongest(red *Reduction, x, y *bitstring.Bits, engine ...congest.Option) (SimulationResult, error) {
	res := SimulationResult{Transcript: bitstring.New(0)}
	if red == nil {
		return res, errors.New("reduction: nil reduction")
	}
	g, err := red.Build(x, y)
	if err != nil {
		return res, err
	}
	side := red.SideOf()
	// The simulated algorithm is a composition of phases, each with round
	// numbering restarting at 1; the engine signals every phase start by
	// invoking the observer with round 0, so keying by (epoch, round)
	// keeps the per-round traffic of distinct phases apart.
	type slot struct{ epoch, round int }
	perRound := map[slot][2]int{} // bits crossing per direction
	epoch := 0
	observer := func(round, from, to, bits int, wire congest.WireView) {
		if round == 0 {
			epoch++ // run boundary marker, carries no traffic
			return
		}
		if side[from] == side[to] {
			return
		}
		if wire.Len() != bits {
			// Unreachable from facade data: the engine charges every
			// message exactly its encoded length, whatever the input.
			panic(fmt.Sprintf("reduction: observer bits %d != wire length %d", bits, wire.Len()))
		}
		for i := 0; i < bits; i++ {
			res.Transcript.AppendBit(wire.Bit(i))
		}
		s := slot{epoch, round}
		e := perRound[s]
		e[side[from]] += bits
		perRound[s] = e
	}
	opts := append([]congest.Option{congest.WithObserver(observer)}, engine...)
	out, err := congest.ClassicalExactDiameter(g, opts...)
	if err != nil {
		return res, err
	}
	res.Rounds = out.Metrics.Rounds
	res.CutBits = res.Transcript.Len()
	switch {
	case out.Diameter <= red.D1:
		res.Disj = 1
	case out.Diameter >= red.D2:
		res.Disj = 0
	default:
		return res, fmt.Errorf("reduction %s: diameter %d strictly between %d and %d",
			red.Name, out.Diameter, red.D1, red.D2)
	}
	// Alice and Bob exchange one message per direction per round with cut
	// traffic; message size is the larger of the actual traffic and one
	// bit (a round marker).
	for _, e := range perRound {
		for dir := 0; dir < 2; dir++ {
			bits := e[dir]
			if bits == 0 {
				bits = 1
			}
			res.Protocol.Messages++
			res.Protocol.Qubits += bits
			if bits > res.Protocol.MaxQubits {
				res.Protocol.MaxQubits = bits
			}
		}
	}
	return res, nil
}

// LowerBoundRounds evaluates the Theorem 10 bound Ω(sqrt(k/b)) and the
// Theorem 3 bound Ω(sqrt(k*d/(b+s))) for given parameters, up to the
// suppressed polylog factors (set logFactor to 1 for the raw value).
func LowerBoundRounds(k, b, d, s int) (theorem2 float64, theorem3 float64) {
	t2 := math.Sqrt(float64(k) / float64(b))
	t3 := math.Sqrt(float64(k) * float64(d) / float64(b+s))
	return t2, t3
}
