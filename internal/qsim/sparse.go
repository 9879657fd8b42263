// Package qsim provides the quantum-state simulator used by the
// reproduction: a sparse amplitude-vector simulator over arbitrary integer
// basis labels (the workhorse for amplitude amplification over network
// configurations). A dense qubit-register simulator in its tests validates
// the sparse engine and the paper's CNOT-copy broadcast semantics on small
// systems.
//
// Why a sparse simulator is exact here: in the paper's framework (Section
// 2.4) the global network state always has the form
//
//	sum_x alpha_x |x>_I |data(x)> |init>,
//
// where |data(x)> and |init> are deterministic functions of x produced by
// quantized classical (reversible) procedures. Tracking the map x -> alpha_x
// therefore loses nothing; the data registers are reconstructed on demand.
//
// The map is stored as an ascending label slice with an aligned amplitude
// slice. Every sum runs in ascending-label order, so amplitudes, norms and
// measurement outcomes are bit-reproducible for a fixed rng stream.
package qsim

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
)

// Sparse is a pure quantum state over integer basis labels with complex128
// amplitudes. The zero value is unusable; construct with NewUniform or
// NewState.
//
// amp[i] is the amplitude of labels[i]. The label slice is never written
// after construction, so clones share it; two states that share one label
// slice are "same-domain", and ReflectAbout on them is an index-aligned
// loop that runs in place.
type Sparse struct {
	labels []int        // ascending, distinct; shared between clones
	amp    []complex128 // aligned with labels
}

// ErrEmptyDomain is returned when a state would have no support.
var ErrEmptyDomain = errors.New("qsim: empty domain")

// NewUniform returns the uniform superposition over the given keys.
func NewUniform(keys []int) (*Sparse, error) {
	if len(keys) == 0 {
		return nil, ErrEmptyDomain
	}
	labels := append([]int(nil), keys...)
	sort.Ints(labels)
	for i := 1; i < len(labels); i++ {
		if labels[i] == labels[i-1] {
			return nil, fmt.Errorf("qsim: duplicate key %d", labels[i])
		}
	}
	a := complex(1/math.Sqrt(float64(len(labels))), 0)
	s := &Sparse{labels: labels, amp: make([]complex128, len(labels))}
	for i := range s.amp {
		s.amp[i] = a
	}
	return s, nil
}

// Clone returns a copy that shares the (immutable) label slice and owns its
// amplitudes.
func (s *Sparse) Clone() *Sparse {
	return &Sparse{labels: s.labels, amp: append([]complex128(nil), s.amp...)}
}

// CopyFrom overwrites s with a copy of o, adopting o's (immutable) label
// slice. It reuses s's amplitude storage, so restoring a scratch state
// cloned from o — the restart of every amplitude-amplification attempt —
// allocates nothing.
func (s *Sparse) CopyFrom(o *Sparse) {
	s.labels = o.labels
	s.amp = append(s.amp[:0], o.amp...)
}

// sameDomain reports whether s and o share one label slice, so their
// amplitude slices are index-aligned.
func (s *Sparse) sameDomain(o *Sparse) bool {
	return len(s.labels) == len(o.labels) &&
		(len(s.labels) == 0 || &s.labels[0] == &o.labels[0])
}

// Len returns the number of basis labels with nonzero amplitude.
func (s *Sparse) Len() int {
	n := 0
	for _, a := range s.amp {
		if a != 0 {
			n++
		}
	}
	return n
}

// Norm returns the Euclidean norm of the state.
func (s *Sparse) Norm() float64 {
	t := 0.0
	for _, a := range s.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// Mark appends to pos the positions of the labels for which marked holds,
// calling marked once per label in ascending order.
// FlipAt replays the positions on any state that shares s's label slice,
// so a fixed predicate is evaluated once, not once per Grover iteration.
func (s *Sparse) Mark(marked func(int) bool, pos []int) []int {
	for i, k := range s.labels {
		if marked(k) {
			pos = append(pos, i)
		}
	}
	return pos
}

// FlipAt negates the amplitudes at positions pos (from Mark on a state
// sharing s's label slice): the phase oracle |x> -> -|x> on the marked
// labels, with the predicate already evaluated.
func (s *Sparse) FlipAt(pos []int) {
	for _, i := range pos {
		s.amp[i] = -s.amp[i]
	}
}

// InnerProduct returns <s|o>.
func (s *Sparse) InnerProduct(o *Sparse) complex128 {
	// Merge over the common labels; a label absent from either side
	// contributes nothing.
	var t complex128
	for i, j := 0, 0; i < len(s.labels) && j < len(o.labels); {
		switch {
		case s.labels[i] < o.labels[j]:
			i++
		case s.labels[i] > o.labels[j]:
			j++
		default:
			t += cmplx.Conj(s.amp[i]) * o.amp[j]
			i++
			j++
		}
	}
	return t
}

// ReflectAbout applies the reflection 2|phi><phi| - I, where phi is the
// (assumed normalized) reference state. With phi the Setup output, this is
// the diffusion step of amplitude amplification: it is implemented in the
// paper by Setup^{-1}, a phase flip on |0>, and Setup.
func (s *Sparse) ReflectAbout(phi *Sparse) {
	c := 2 * phi.InnerProduct(s) // s' = 2 <phi|s> phi - s
	if s.sameDomain(phi) {
		for i, p := range phi.amp {
			s.amp[i] = c*p - s.amp[i]
		}
		return
	}
	// Different label sets: the result lives on their union.
	labels := make([]int, 0, len(s.labels)+len(phi.labels))
	amp := make([]complex128, 0, cap(labels))
	i, j := 0, 0
	for i < len(s.labels) || j < len(phi.labels) {
		switch {
		case j == len(phi.labels) || (i < len(s.labels) && s.labels[i] < phi.labels[j]):
			labels = append(labels, s.labels[i])
			amp = append(amp, -s.amp[i])
			i++
		case i == len(s.labels) || phi.labels[j] < s.labels[i]:
			labels = append(labels, phi.labels[j])
			amp = append(amp, c*phi.amp[j])
			j++
		default:
			labels = append(labels, s.labels[i])
			amp = append(amp, c*phi.amp[j]-s.amp[i])
			i++
			j++
		}
	}
	s.labels, s.amp = labels, amp
}

// Measure samples a basis label from the state's distribution using rng,
// or returns -1 for the zero state. The state itself is left untouched;
// sampling walks the labels in ascending order, so the outcome is a
// deterministic function of the rng stream.
func (s *Sparse) Measure(rng *rand.Rand) int {
	n := s.Norm()
	if n == 0 {
		return -1
	}
	r := rng.Float64() * n * n
	acc, last := 0.0, -1
	for i, a := range s.amp {
		if a == 0 {
			continue
		}
		last = s.labels[i]
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return last
		}
	}
	return last
}
