package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

// mapSparse is the original map-backed sparse simulator, kept as a
// test-only oracle for Sparse. Its sums run in Go's randomised map order,
// so it agrees with Sparse to rounding, not bit for bit.
type mapSparse struct {
	amp map[int]complex128
}

func newMapState(amps map[int]complex128) *mapSparse {
	s := &mapSparse{amp: make(map[int]complex128, len(amps))}
	for k, a := range amps {
		s.amp[k] = a
	}
	s.scale(complex(1/s.norm(), 0))
	return s
}

func (s *mapSparse) clone() *mapSparse {
	c := &mapSparse{amp: make(map[int]complex128, len(s.amp))}
	for k, a := range s.amp {
		c.amp[k] = a
	}
	return c
}

func (s *mapSparse) support() []int {
	out := make([]int, 0, len(s.amp))
	for k, a := range s.amp {
		if a != 0 {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

func (s *mapSparse) norm() float64 {
	t := 0.0
	for _, a := range s.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

func (s *mapSparse) scale(c complex128) {
	for k := range s.amp {
		s.amp[k] *= c
	}
}

func (s *mapSparse) phaseFlip(marked func(int) bool) {
	for k, a := range s.amp {
		if marked(k) {
			s.amp[k] = -a
		}
	}
}

func (s *mapSparse) innerProduct(o *mapSparse) complex128 {
	var t complex128
	for k, a := range s.amp {
		t += cmplx.Conj(a) * o.amp[k]
	}
	return t
}

func (s *mapSparse) reflectAbout(phi *mapSparse) {
	ip := phi.innerProduct(s)
	next := make(map[int]complex128, len(s.amp)+len(phi.amp))
	for k, a := range s.amp {
		next[k] = -a
	}
	for k, p := range phi.amp {
		next[k] += 2 * ip * p
	}
	s.amp = next
}

func (s *mapSparse) probability(pred func(int) bool) float64 {
	t := 0.0
	for k, a := range s.amp {
		if pred(k) {
			t += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return t
}

func (s *mapSparse) measure(rng *rand.Rand) int {
	keys := s.support()
	if len(keys) == 0 {
		return -1
	}
	r := rng.Float64() * s.norm() * s.norm()
	acc := 0.0
	for _, k := range keys {
		a := s.amp[k]
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return k
		}
	}
	return keys[len(keys)-1]
}

const diffTol = 1e-12

// randomAmps returns random complex amplitudes over `size` distinct labels
// drawn from [lo, lo+span).
func randomAmps(rng *rand.Rand, size, lo, span int) map[int]complex128 {
	amps := make(map[int]complex128, size)
	for _, i := range rng.Perm(span)[:size] {
		amps[lo+i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return amps
}

// agree fails the test unless s and o have the same amplitude on every
// label either one carries.
func agree(t *testing.T, step int, s *Sparse, o *mapSparse) {
	t.Helper()
	for k, a := range o.amp {
		if d := cmplx.Abs(s.Amplitude(k) - a); d > diffTol {
			t.Fatalf("step %d: label %d amplitude %v, oracle %v", step, k, s.Amplitude(k), a)
		}
	}
	for i, k := range s.labels {
		if d := cmplx.Abs(s.amp[i] - o.amp[k]); d > diffTol {
			t.Fatalf("step %d: label %d amplitude %v, oracle %v", step, k, s.amp[i], o.amp[k])
		}
	}
}

// Differential test: random sequences of the simulator's operations on the
// slice-backed Sparse and the map-backed oracle give amplitudes within
// 1e-12 and identical measurement outcomes. The reference states cover one
// shared domain (the in-place path) and overlapping, disjoint and nested
// label sets (the merge path).
func TestSparseMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mrng := rand.New(rand.NewSource(seed + 1000))
		srng := rand.New(rand.NewSource(seed + 1000))

		keys := rng.Perm(200)[:40+rng.Intn(60)]
		uni, err := NewUniform(keys)
		if err != nil {
			t.Fatal(err)
		}
		uniAmps := make(map[int]complex128, len(keys))
		for _, k := range keys {
			uniAmps[k] = 1
		}
		refAmps := []map[int]complex128{
			uniAmps,
			randomAmps(rng, 50, 100, 200),  // overlaps the uniform domain
			randomAmps(rng, 20, 1000, 40),  // disjoint from it
			randomAmps(rng, 10, -5, 15),    // negative labels
			randomAmps(rng, 120, 0, 200),   // another overlapping set
			randomAmps(rng, 30, 150, 60),   // straddles the upper end
			randomAmps(rng, 5, 1<<40, 100), // far-away labels
		}
		// A superset of the working state `own` below: another merge-path
		// input, where one label set contains the other.
		own := randomAmps(rng, 70, 50, 150)
		ownPlus := randomAmps(rng, 10, 300, 20)
		for k := range own {
			ownPlus[k] = complex(rng.NormFloat64(), 0)
		}
		refAmps = append(refAmps, ownPlus)
		refs := []*Sparse{uni}
		orefs := []*mapSparse{newMapState(uniAmps)}
		for _, a := range refAmps[1:] {
			s, err := NewState(a)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, s)
			orefs = append(orefs, newMapState(a))
		}
		// Working states: a clone of the uniform state (shares its label
		// slice), a state over a label set of its own and one over a
		// subset of the uniform domain.
		sub := make(map[int]complex128)
		for _, k := range keys[:10] {
			sub[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		work := []*Sparse{uni.Clone()}
		owork := []*mapSparse{orefs[0].clone()}
		for _, a := range []map[int]complex128{own, sub} {
			s, err := NewState(a)
			if err != nil {
				t.Fatal(err)
			}
			work = append(work, s)
			owork = append(owork, newMapState(a))
		}

		for step := 0; step < 200; step++ {
			w := rng.Intn(len(work))
			s, o := work[w], owork[w]
			switch rng.Intn(6) {
			case 0:
				mod, res := 2+rng.Intn(7), rng.Intn(3)
				marked := func(k int) bool { return ((k%mod)+mod)%mod == res }
				s.PhaseFlip(marked)
				o.phaseFlip(marked)
			case 1:
				r := rng.Intn(len(refs))
				s.ReflectAbout(refs[r])
				o.reflectAbout(orefs[r])
			case 2:
				r := rng.Intn(len(refs))
				if d := cmplx.Abs(s.InnerProduct(refs[r]) - o.innerProduct(orefs[r])); d > diffTol {
					t.Fatalf("seed %d step %d: <s|ref%d> differs by %g", seed, step, r, d)
				}
				if d := cmplx.Abs(refs[r].InnerProduct(s) - orefs[r].innerProduct(o)); d > diffTol {
					t.Fatalf("seed %d step %d: <ref%d|s> differs by %g", seed, step, r, d)
				}
			case 3:
				mod := 2 + rng.Intn(5)
				pred := func(k int) bool { return k%mod == 0 }
				if d := math.Abs(s.Probability(pred) - o.probability(pred)); d > diffTol {
					t.Fatalf("seed %d step %d: probability differs by %g", seed, step, d)
				}
			case 4:
				if got, want := s.Measure(srng), o.measure(mrng); got != want {
					t.Fatalf("seed %d step %d: Measure = %d, oracle %d", seed, step, got, want)
				}
			case 5:
				if d := math.Abs(s.Norm() - o.norm()); d > diffTol {
					t.Fatalf("seed %d step %d: norm differs by %g", seed, step, d)
				}
				// Cancellation leaves rounding-level residues where the
				// oracle may hold an exact zero, so supports agree only on
				// labels whose amplitude is clearly nonzero.
				sup := s.Support()
				if s.Len() != len(sup) || !sort.IntsAreSorted(sup) {
					t.Fatalf("seed %d step %d: Len %d, Support %v", seed, step, s.Len(), sup)
				}
				for k, a := range o.amp {
					if i := sort.SearchInts(sup, k); cmplx.Abs(a) > diffTol && (i == len(sup) || sup[i] != k) {
						t.Fatalf("seed %d step %d: label %d (oracle amplitude %v) missing from Support", seed, step, k, a)
					}
				}
			}
			agree(t, step, s, o)
		}
	}
}

// A Grover iteration over states that share one label set allocates
// nothing: the phase flip and the reflection run in place.
func TestGroverIterationAllocFree(t *testing.T) {
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = 3 * i
	}
	phi, err := NewUniform(keys)
	if err != nil {
		t.Fatal(err)
	}
	s := phi.Clone()
	marked := func(k int) bool { return k%7 == 0 }
	if allocs := testing.AllocsPerRun(100, func() { s.GroverIteration(phi, marked) }); allocs != 0 {
		t.Errorf("GroverIteration allocates %v times per call, want 0", allocs)
	}
}

// Every sum runs in ascending-label order, so identical runs give
// bit-identical amplitudes.
func TestGroverBitReproducible(t *testing.T) {
	keys := make([]int, 256)
	for i := range keys {
		keys[i] = i
	}
	marked := func(k int) bool { return k%11 == 3 }
	patterns := map[uint64]int{}
	for run := 0; run < 200; run++ {
		phi, err := NewUniform(keys)
		if err != nil {
			t.Fatal(err)
		}
		s := phi.Clone()
		for i := 0; i < 5; i++ {
			s.GroverIteration(phi, marked)
		}
		patterns[math.Float64bits(s.Norm())]++
	}
	if len(patterns) != 1 {
		t.Errorf("200 identical runs gave %d distinct Norm() bit patterns, want 1", len(patterns))
	}
}
