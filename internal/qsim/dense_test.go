package qsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a dense state vector over q qubits (2^q complex amplitudes), a
// test-only oracle used to validate the sparse simulator and the CNOT-copy
// semantics of Section 2 ("Preliminaries") on small systems. Qubit 0 is
// the least significant bit of the basis index.
type Dense struct {
	q   int
	amp []complex128
}

// NewDense returns |0...0> on q qubits (q <= 20 to bound memory).
func NewDense(q int) (*Dense, error) {
	if q < 1 || q > 20 {
		return nil, fmt.Errorf("qsim: dense register of %d qubits unsupported", q)
	}
	d := &Dense{q: q, amp: make([]complex128, 1<<q)}
	d.amp[0] = 1
	return d, nil
}

// Qubits returns the number of qubits.
func (d *Dense) Qubits() int { return d.q }

// Amplitude returns the amplitude of basis state i.
func (d *Dense) Amplitude(i int) complex128 { return d.amp[i] }

func (d *Dense) check(qs ...int) error {
	for _, qb := range qs {
		if qb < 0 || qb >= d.q {
			return fmt.Errorf("qsim: qubit %d out of range [0,%d)", qb, d.q)
		}
	}
	return nil
}

// H applies a Hadamard gate to qubit t.
func (d *Dense) H(t int) error {
	if err := d.check(t); err != nil {
		return err
	}
	inv := complex(1/math.Sqrt2, 0)
	bit := 1 << t
	for i := range d.amp {
		if i&bit == 0 {
			a0, a1 := d.amp[i], d.amp[i|bit]
			d.amp[i] = inv * (a0 + a1)
			d.amp[i|bit] = inv * (a0 - a1)
		}
	}
	return nil
}

// X applies a NOT gate to qubit t.
func (d *Dense) X(t int) error {
	if err := d.check(t); err != nil {
		return err
	}
	bit := 1 << t
	for i := range d.amp {
		if i&bit == 0 {
			d.amp[i], d.amp[i|bit] = d.amp[i|bit], d.amp[i]
		}
	}
	return nil
}

// Z applies a phase flip to qubit t.
func (d *Dense) Z(t int) error {
	if err := d.check(t); err != nil {
		return err
	}
	bit := 1 << t
	for i := range d.amp {
		if i&bit != 0 {
			d.amp[i] = -d.amp[i]
		}
	}
	return nil
}

// CNOT applies a controlled NOT with control c and target t.
func (d *Dense) CNOT(c, t int) error {
	if err := d.check(c, t); err != nil {
		return err
	}
	if c == t {
		return fmt.Errorf("qsim: CNOT control equals target %d", c)
	}
	cb, tb := 1<<c, 1<<t
	for i := range d.amp {
		if i&cb != 0 && i&tb == 0 {
			d.amp[i], d.amp[i|tb] = d.amp[i|tb], d.amp[i]
		}
	}
	return nil
}

// CCNOT applies a Toffoli gate with controls c1, c2 and target t.
func (d *Dense) CCNOT(c1, c2, t int) error {
	if err := d.check(c1, c2, t); err != nil {
		return err
	}
	if c1 == t || c2 == t || c1 == c2 {
		return fmt.Errorf("qsim: CCNOT qubits must be distinct")
	}
	b1, b2, tb := 1<<c1, 1<<c2, 1<<t
	for i := range d.amp {
		if i&b1 != 0 && i&b2 != 0 && i&tb == 0 {
			d.amp[i], d.amp[i|tb] = d.amp[i|tb], d.amp[i]
		}
	}
	return nil
}

// CNOTCopy applies the paper's "CNOT copy": for two m-qubit registers
// starting at src and dst, it maps |u>|v> to |u>|u xor v>, i.e. m parallel
// CNOTs. On |u>|0> it acts as a classical copy, which is how Setup
// broadcasts the leader's register through the network.
func (d *Dense) CNOTCopy(src, dst, m int) error {
	if src+m > d.q || dst+m > d.q || src < 0 || dst < 0 {
		return fmt.Errorf("qsim: CNOTCopy registers out of range")
	}
	if (src <= dst && dst < src+m) || (dst <= src && src < dst+m) {
		return fmt.Errorf("qsim: CNOTCopy registers overlap")
	}
	for j := 0; j < m; j++ {
		if err := d.CNOT(src+j, dst+j); err != nil {
			return err
		}
	}
	return nil
}

// PhaseFlipIf negates the amplitude of every basis state for which pred
// holds (an arbitrary classical oracle).
func (d *Dense) PhaseFlipIf(pred func(i int) bool) {
	for i := range d.amp {
		if pred(i) {
			d.amp[i] = -d.amp[i]
		}
	}
}

// Probability returns the probability that measuring all qubits yields i.
func (d *Dense) Probability(i int) float64 {
	a := d.amp[i]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Measure samples a full-register measurement outcome.
func (d *Dense) Measure(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, a := range d.amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return i
		}
	}
	return len(d.amp) - 1
}

// Norm returns the state norm (should stay 1 up to rounding).
func (d *Dense) Norm() float64 {
	t := 0.0
	for _, a := range d.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}
