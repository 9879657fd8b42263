package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func TestNewUniform(t *testing.T) {
	s, err := NewUniform([]int{3, 7, 11, 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Errorf("norm = %g", s.Norm())
	}
	want := 0.5
	for _, k := range []int{3, 7, 11, 15} {
		if math.Abs(real(s.Amplitude(k))-want) > tol {
			t.Errorf("amp[%d] = %v", k, s.Amplitude(k))
		}
	}
	if s.Amplitude(4) != 0 {
		t.Error("absent key has amplitude")
	}
	if _, err := NewUniform(nil); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewUniform([]int{1, 1}); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestPhaseFlip(t *testing.T) {
	s, _ := NewUniform([]int{0, 1, 2, 3})
	s.PhaseFlip(func(k int) bool { return k == 2 })
	if real(s.Amplitude(2)) >= 0 {
		t.Error("marked amplitude not flipped")
	}
	if real(s.Amplitude(1)) <= 0 {
		t.Error("unmarked amplitude flipped")
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Error("phase flip changed norm")
	}
	// Mark + FlipAt is the same flip, with the predicate called once per
	// label in ascending order, replayable on a clone.
	var calls []int
	pos := s.Mark(func(k int) bool { calls = append(calls, k); return k == 2 }, nil)
	c := s.Clone()
	c.FlipAt(pos)
	s.PhaseFlip(func(k int) bool { return k == 2 })
	if !reflect.DeepEqual(calls, []int{0, 1, 2, 3}) || !reflect.DeepEqual(pos, []int{2}) {
		t.Errorf("Mark called %v and returned %v, want [0 1 2 3] and [2]", calls, pos)
	}
	for _, k := range []int{0, 1, 2, 3} {
		if c.Amplitude(k) != s.Amplitude(k) {
			t.Errorf("FlipAt amplitude %v at %d, PhaseFlip %v", c.Amplitude(k), k, s.Amplitude(k))
		}
	}
}

func TestReflectAboutIsInvolution(t *testing.T) {
	phi, _ := NewUniform([]int{0, 1, 2, 3, 4})
	s := phi.Clone()
	s.PhaseFlip(func(k int) bool { return k%2 == 0 })
	orig := s.Clone()
	s.ReflectAbout(phi)
	s.ReflectAbout(phi)
	for _, k := range orig.Support() {
		if cmplx.Abs(s.Amplitude(k)-orig.Amplitude(k)) > tol {
			t.Fatalf("reflection not involutive at %d", k)
		}
	}
}

// Grover analytic check: with N items and M marked, after k iterations the
// success probability is sin^2((2k+1) theta) with sin(theta)=sqrt(M/N).
func TestGroverMatchesTheory(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{16, 1}, {64, 1}, {64, 4}, {100, 7}, {8, 2},
	} {
		keys := make([]int, tc.n)
		for i := range keys {
			keys[i] = i
		}
		marked := func(k int) bool { return k < tc.m }
		phi, err := NewUniform(keys)
		if err != nil {
			t.Fatal(err)
		}
		s := phi.Clone()
		theta := math.Asin(math.Sqrt(float64(tc.m) / float64(tc.n)))
		for k := 1; k <= 8; k++ {
			s.GroverIteration(phi, marked)
			want := math.Pow(math.Sin(float64(2*k+1)*theta), 2)
			got := s.Probability(marked)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("N=%d M=%d k=%d: P=%g, want %g", tc.n, tc.m, k, got, want)
			}
			if math.Abs(s.Norm()-1) > 1e-9 {
				t.Fatalf("norm drifted: %g", s.Norm())
			}
		}
	}
}

// Cross-validation: the sparse Grover iteration agrees with the dense
// qubit-level implementation (H^q, oracle, diffusion built from gates).
func TestSparseMatchesDense(t *testing.T) {
	const q = 4 // 16 items
	n := 1 << q
	target := 11

	d, err := NewDense(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < q; i++ {
		if err := d.H(i); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	phi, _ := NewUniform(keys)
	s := phi.Clone()
	marked := func(k int) bool { return k == target }

	for iter := 0; iter < 5; iter++ {
		// Dense: oracle then diffusion = H^q (2|0><0|-I) H^q.
		d.PhaseFlipIf(func(i int) bool { return i == target })
		for i := 0; i < q; i++ {
			d.H(i)
		}
		d.PhaseFlipIf(func(i int) bool { return i != 0 })
		for i := 0; i < q; i++ {
			d.H(i)
		}
		// The dense construction implements -(2|phi><phi|-I) after the
		// oracle up to global phase; compare probabilities instead of
		// amplitudes.
		s.GroverIteration(phi, marked)
		for i := 0; i < n; i++ {
			pd := d.Probability(i)
			a := s.Amplitude(i)
			ps := real(a)*real(a) + imag(a)*imag(a)
			if math.Abs(pd-ps) > 1e-9 {
				t.Fatalf("iter %d basis %d: dense %g sparse %g", iter, i, pd, ps)
			}
		}
	}
}

func TestMeasureDistribution(t *testing.T) {
	s, _ := NewState(map[int]complex128{1: 3, 2: 4}) // probs 9/25, 16/25
	rng := rand.New(rand.NewSource(42))
	counts := map[int]int{}
	const shots = 20000
	for i := 0; i < shots; i++ {
		counts[s.Measure(rng)]++
	}
	p1 := float64(counts[1]) / shots
	if math.Abs(p1-0.36) > 0.02 {
		t.Errorf("P(1) = %g, want 0.36", p1)
	}
}

func TestCNOTCopySemantics(t *testing.T) {
	// Two 2-qubit registers: src = qubits 0-1, dst = qubits 2-3.
	d, err := NewDense(4)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare (|00> + |11>)/sqrt2 in src: H(0); CNOT(0,1).
	d.H(0)
	d.CNOT(0, 1)
	// Copy src -> dst.
	if err := d.CNOTCopy(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	// Expect (|00,00> + |11,11>)/sqrt2: basis indices 0 and 15.
	if math.Abs(d.Probability(0)-0.5) > tol || math.Abs(d.Probability(15)-0.5) > tol {
		t.Errorf("P(0)=%g P(15)=%g", d.Probability(0), d.Probability(15))
	}
	// Copy is self-inverse: |u>|u xor u> = |u>|0>.
	if err := d.CNOTCopy(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Probability(0)-0.5) > tol || math.Abs(d.Probability(3)-0.5) > tol {
		t.Errorf("after uncopy: P(0)=%g P(3)=%g", d.Probability(0), d.Probability(3))
	}
}

func TestCNOTCopyValidation(t *testing.T) {
	d, _ := NewDense(4)
	if err := d.CNOTCopy(0, 1, 2); err == nil {
		t.Error("overlapping registers accepted")
	}
	if err := d.CNOTCopy(0, 3, 2); err == nil {
		t.Error("out-of-range register accepted")
	}
}

func TestDenseGateValidation(t *testing.T) {
	d, _ := NewDense(2)
	if err := d.H(2); err == nil {
		t.Error("H on missing qubit accepted")
	}
	if err := d.CNOT(0, 0); err == nil {
		t.Error("CNOT with control==target accepted")
	}
	if err := d.CCNOT(0, 1, 1); err == nil {
		t.Error("CCNOT with duplicate qubits accepted")
	}
	if _, err := NewDense(0); err == nil {
		t.Error("0-qubit register accepted")
	}
	if _, err := NewDense(21); err == nil {
		t.Error("21-qubit register accepted")
	}
}

func TestToffoli(t *testing.T) {
	d, _ := NewDense(3)
	d.X(0)
	d.X(1)
	if err := d.CCNOT(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Probability(7)-1) > tol {
		t.Errorf("CCNOT |110> -> P(111) = %g", d.Probability(7))
	}
}

// Property: unitarity — Grover iterations preserve the norm for random
// marked sets.
func TestGroverPreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i * 3
		}
		markedSet := map[int]bool{}
		for i := 0; i < n/3+1; i++ {
			markedSet[keys[rng.Intn(n)]] = true
		}
		phi, err := NewUniform(keys)
		if err != nil {
			return false
		}
		s := phi.Clone()
		for it := 0; it < 7; it++ {
			s.GroverIteration(phi, func(k int) bool { return markedSet[k] })
			if math.Abs(s.Norm()-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNewStateNormalizes(t *testing.T) {
	s, err := NewState(map[int]complex128{5: 2, 9: 2i})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm()-1) > tol {
		t.Errorf("norm = %g", s.Norm())
	}
	if _, err := NewState(map[int]complex128{}); err == nil {
		t.Error("empty state accepted")
	}
	if _, err := NewState(map[int]complex128{1: 0}); err == nil {
		t.Error("zero state accepted")
	}
}
