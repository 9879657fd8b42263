package simulation

// A concrete algorithm on G_d used to exercise the Theorem 11 simulation:
// Alice's input x travels rightward through the path (one hop per two
// rounds), B computes f(x, y), and the result travels back leftward, so
// after 4d+6 rounds Alice's private register holds the result. This is the
// generic shape of any two-input computation over G_d — in particular the
// DISJ computations behind Theorem 3.

const (
	relayValueMask = (1 << 24) - 1
	relayResultBit = 1 << 24 // marks a leftward (result) message
	relayDoneBit   = 1 << 25 // marks that a node captured the result
)

// NewRelayAlgorithm builds the relay computation on G_d for a binary
// function f over 24-bit values. Alice's output ends in R_0's high bits.
func NewRelayAlgorithm(d int, f func(x, y uint64) uint64) *Algorithm {
	step := func(i, t int, priv, msg uint64) (uint64, uint64) {
		last := d + 1
		switch {
		case i == 0:
			// Alice acts at odd rounds on T_0. If the result came back,
			// capture it; otherwise (re)send x rightward.
			if msg&relayResultBit != 0 {
				return priv | (msg&relayValueMask)<<32 | relayDoneBit, msg
			}
			return priv, priv & relayValueMask
		case i == last:
			// Bob acts at even rounds on T_d. On the first arrival of a
			// value, compute the result and send it leftward flagged.
			if priv&relayDoneBit == 0 && msg != 0 && msg&relayResultBit == 0 {
				res := f(msg&relayValueMask, priv&relayValueMask) & relayValueMask
				return priv | relayDoneBit, res | relayResultBit
			}
			return priv, msg
		case t%2 == 0:
			// Middle node receiving from the left (T_{i-1}). Pass results
			// leftward if one is stored; otherwise capture the forward
			// value.
			if priv&relayDoneBit != 0 {
				return priv, (priv>>32)&relayValueMask | relayResultBit
			}
			if msg&relayResultBit == 0 && msg != 0 {
				return priv&^relayValueMask | msg&relayValueMask, msg
			}
			return priv, msg
		default:
			// Middle node at odd rounds on T_i (rightward slot). Capture a
			// result coming back from the right; otherwise forward the
			// stored value rightward.
			if msg&relayResultBit != 0 && priv&relayDoneBit == 0 {
				return priv | (msg&relayValueMask)<<32 | relayDoneBit, msg
			}
			return priv, priv & relayValueMask
		}
	}
	return &Algorithm{
		D:         d,
		Rounds:    4*d + 6,
		Step:      step,
		Bandwidth: 26,
		Memory:    58,
	}
}
