package qsim

import "sort"

// Test-side constructor, read-outs and predicate-driven Grover steps of
// Sparse states for the oracle and property tests; the library builds its
// states with NewUniform and amplifies with Mark, FlipAt and ReflectAbout
// (internal/amplify).

// NewState returns a state with the given amplitudes, normalized.
func NewState(amps map[int]complex128) (*Sparse, error) {
	labels := make([]int, 0, len(amps))
	for k := range amps {
		labels = append(labels, k)
	}
	sort.Ints(labels)
	s := &Sparse{labels: labels, amp: make([]complex128, len(labels))}
	for i, k := range labels {
		s.amp[i] = amps[k]
	}
	n := s.Norm()
	if n == 0 {
		return nil, ErrEmptyDomain
	}
	for i := range s.amp {
		s.amp[i] *= complex(1/n, 0)
	}
	return s, nil
}

// Amplitude returns the amplitude of basis label k (zero if absent).
func (s *Sparse) Amplitude(k int) complex128 {
	if i := sort.SearchInts(s.labels, k); i < len(s.labels) && s.labels[i] == k {
		return s.amp[i]
	}
	return 0
}

// Support returns the basis labels with nonzero amplitude, ascending.
func (s *Sparse) Support() []int {
	out := make([]int, 0, len(s.labels))
	for i, a := range s.amp {
		if a != 0 {
			out = append(out, s.labels[i])
		}
	}
	return out
}

// Probability returns the total probability of measuring a label for which
// pred holds.
func (s *Sparse) Probability(pred func(int) bool) float64 {
	t := 0.0
	for i, k := range s.labels {
		if pred(k) {
			a := s.amp[i]
			t += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return t
}

// PhaseFlip applies the oracle that negates the amplitude of every marked
// basis label: |x> -> -|x> when marked(x).
func (s *Sparse) PhaseFlip(marked func(int) bool) {
	for i, k := range s.labels {
		if marked(k) {
			s.amp[i] = -s.amp[i]
		}
	}
}

// GroverIteration applies one amplitude-amplification step: the marked-set
// phase flip followed by the reflection about phi.
func (s *Sparse) GroverIteration(phi *Sparse, marked func(int) bool) {
	s.PhaseFlip(marked)
	s.ReflectAbout(phi)
}
