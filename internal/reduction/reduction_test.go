package reduction

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"qcongest/internal/bitstring"
	"qcongest/internal/congest"
)

// randomBits returns a bit vector where each bit is 1 independently with
// probability p, drawn from rng.
func randomBits(n int, p float64, rng *rand.Rand) *bitstring.Bits {
	b := bitstring.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i, true)
		}
	}
	return b
}

// Exhaustive verification of the HW12 construction (Figure 4 / Theorem 8)
// for s = 2: all 2^(2k) input pairs with k = 4.
func TestHW12ReductionExhaustive(t *testing.T) {
	red, err := NewHW12(2)
	if err != nil {
		t.Fatal(err)
	}
	if red.K != 4 || red.D1 != 2 || red.D2 != 3 {
		t.Fatalf("parameters: %+v", red)
	}
	for xv := 0; xv < 16; xv++ {
		for yv := 0; yv < 16; yv++ {
			x, y := bitsFromInt(xv, 4), bitsFromInt(yv, 4)
			if err := red.Verify(x, y); err != nil {
				t.Fatalf("x=%s y=%s: %v", x, y, err)
			}
		}
	}
}

func bitsFromInt(v, k int) *bitstring.Bits {
	b := bitstring.New(k)
	for i := 0; i < k; i++ {
		if v&(1<<i) != 0 {
			b.Set(i, true)
		}
	}
	return b
}

func TestHW12ReductionRandomLarge(t *testing.T) {
	red, err := NewHW12(6) // n = 26, k = 36
	if err != nil {
		t.Fatal(err)
	}
	if red.Base.N() != 26 {
		t.Fatalf("n = %d, want 26", red.Base.N())
	}
	// b = 2s+1 = Theta(n).
	if red.B != 13 {
		t.Fatalf("b = %d, want 13", red.B)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		x, y := mustPair(t, bitstring.RandomDisjointPair, 36, rng)
		if err := red.Verify(x, y); err != nil {
			t.Fatal(err)
		}
		x, y = mustPair(t, bitstring.RandomIntersectingPair, 36, rng)
		if err := red.Verify(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

// The witness property of the proof of Theorem 8: d(l_i, r'_j) = 3 iff
// x_ij = y_ij = 1, else <= 2.
func TestHW12PairDistances(t *testing.T) {
	const s = 3
	red, err := NewHW12(s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		x := randomBits(s*s, 0.5, rng)
		y := randomBits(s*s, 0.5, rng)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				is3, err := PairDistanceIs3(red, x, y, s, i, j)
				if err != nil {
					t.Fatal(err)
				}
				want := x.Get(i*s+j) && y.Get(i*s+j)
				if is3 != want {
					t.Errorf("trial %d (i,j)=(%d,%d): dist>=3 = %v, want %v", trial, i, j, is3, want)
				}
			}
		}
	}
}

func TestHW12Validation(t *testing.T) {
	if _, err := NewHW12(0); err == nil {
		t.Error("s=0 accepted")
	}
	red, _ := NewHW12(2)
	if _, err := red.Build(bitstring.New(3), bitstring.New(4)); err == nil {
		t.Error("wrong input length accepted")
	}
}

// Exhaustive verification of the ACHK16-style construction (Theorem 9) for
// m = 4: all 256 input pairs.
func TestACHK16ReductionExhaustive(t *testing.T) {
	red, err := NewACHK16(4)
	if err != nil {
		t.Fatal(err)
	}
	if red.D1 != 4 || red.D2 != 5 {
		t.Fatalf("parameters: %+v", red)
	}
	for xv := 0; xv < 16; xv++ {
		for yv := 0; yv < 16; yv++ {
			x, y := bitsFromInt(xv, 4), bitsFromInt(yv, 4)
			if err := red.Verify(x, y); err != nil {
				t.Fatalf("x=%s y=%s: %v", x, y, err)
			}
		}
	}
}

func TestACHK16ReductionRandomLarge(t *testing.T) {
	const m = 64
	red, err := NewACHK16(m)
	if err != nil {
		t.Fatal(err)
	}
	// b = 2*log2(m) + 1 = 13: Theta(log n) with n = 2m + 4 log m + 2.
	if red.B != 13 {
		t.Fatalf("b = %d, want 13", red.B)
	}
	if red.K != m {
		t.Fatalf("k = %d, want %d", red.K, m)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		x, y := mustPair(t, bitstring.RandomDisjointPair, m, rng)
		if err := red.Verify(x, y); err != nil {
			t.Fatal(err)
		}
		x, y = mustPair(t, bitstring.RandomIntersectingPair, m, rng)
		if err := red.Verify(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

// The critical-pair property behind Theorem 9: d(l_i, r_i) = 5 iff
// x_i = y_i = 1.
func TestACHK16CriticalPairs(t *testing.T) {
	const m = 8
	red, err := NewACHK16(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		x := randomBits(m, 0.5, rng)
		y := randomBits(m, 0.5, rng)
		for i := 0; i < m; i++ {
			d, err := CriticalPairDistance(red, x, y, i)
			if err != nil {
				t.Fatal(err)
			}
			if x.Get(i) && y.Get(i) {
				if d != 5 {
					t.Errorf("trial %d i=%d: d(l_i,r_i) = %d, want 5", trial, i, d)
				}
			} else if d > 4 {
				t.Errorf("trial %d i=%d: d(l_i,r_i) = %d, want <= 4", trial, i, d)
			}
		}
	}
}

func TestPathNetwork(t *testing.T) {
	g, err := PathNetwork(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 6 {
		t.Errorf("G_5: n=%d m=%d, want 7, 6", g.N(), g.M())
	}
	d, _ := g.Diameter()
	if d != 6 {
		t.Errorf("diameter %d, want 6", d)
	}
	if _, err := PathNetwork(0); err == nil {
		t.Error("d=0 accepted")
	}
}

// Figure 8: subdividing the ACHK16 cut edges makes the diameter d+4 vs d+5.
func TestSubdividedACHK16(t *testing.T) {
	red, err := NewACHK16(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 5, 9} {
		for i := 0; i < 6; i++ {
			x, y := mustPair(t, bitstring.RandomDisjointPair, 8, rng)
			if err := VerifySubdivided(red, x, y, d); err != nil {
				t.Fatal(err)
			}
			x, y = mustPair(t, bitstring.RandomIntersectingPair, 8, rng)
			if err := VerifySubdivided(red, x, y, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSubdividedStructure(t *testing.T) {
	red, err := NewACHK16(4)
	if err != nil {
		t.Fatal(err)
	}
	x, y := bitsFromInt(5, 4), bitsFromInt(2, 4)
	sub, err := BuildSubdivided(red, x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	// n' = n + b*d new vertices.
	wantN := red.Base.N() + red.B*3
	if sub.G.N() != wantN {
		t.Errorf("n' = %d, want %d", sub.G.N(), wantN)
	}
	if len(sub.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(sub.Layers))
	}
	for t2, layer := range sub.Layers {
		if len(layer) != red.B {
			t.Errorf("layer %d has %d vertices, want %d", t2, len(layer), red.B)
		}
	}
	if _, err := BuildSubdivided(red, x, y, 0); err == nil {
		t.Error("d=0 accepted")
	}
}

// Theorem 10's simulation: the classical algorithm on Gn(x, y), run as a
// two-party protocol, decides DISJ, and its communication is bounded by
// rounds * b * bandwidth.
func TestTwoPartyFromCongest(t *testing.T) {
	red, err := NewHW12(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		var x, y *bitstring.Bits
		var want int
		if trial%2 == 0 {
			x, y = mustPair(t, bitstring.RandomDisjointPair, 9, rng)
			want = 1
		} else {
			x, y = mustPair(t, bitstring.RandomIntersectingPair, 9, rng)
			want = 0
		}
		res, err := TwoPartyFromCongest(red, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if res.Disj != want {
			t.Errorf("trial %d: DISJ = %d, want %d", trial, res.Disj, want)
		}
		// Theorem 10 accounting: <= 2 messages per round, each at most
		// b * bandwidth bits.
		if res.Protocol.Messages > 2*res.Rounds {
			t.Errorf("messages %d > 2*rounds %d", res.Protocol.Messages, res.Rounds)
		}
		if res.Protocol.MaxQubits > MaxCutTrafficPerRound(red) {
			t.Errorf("message size %d > b*bw %d", res.Protocol.MaxQubits, MaxCutTrafficPerRound(red))
		}
		if res.CutBits > res.Rounds*MaxCutTrafficPerRound(red) {
			t.Errorf("cut traffic %d exceeds rounds*b*bw", res.CutBits)
		}
	}
}

// The Theorem 10 transcript is the actual encoded cut traffic: its length
// must agree with an independent tally of the per-message bit counts the
// engine reports, and every bit of it must be reproducible run over run
// (the observer order is canonical).
func TestTwoPartyTranscriptMatchesCutBits(t *testing.T) {
	red, err := NewHW12(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x, y := mustPair(t, bitstring.RandomIntersectingPair, 9, rng)
	res, err := TwoPartyFromCongest(red, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transcript.Len() != res.CutBits {
		t.Fatalf("transcript %d bits, CutBits %d", res.Transcript.Len(), res.CutBits)
	}
	// Independent tally: re-run the simulated algorithm with a plain
	// observer summing the engine-reported sizes of cut-crossing messages.
	g, err := red.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	side := red.SideOf()
	sum := 0
	obs := func(round, from, to, bits int, wire congest.WireView) {
		if round == 0 {
			return // run boundary marker
		}
		if side[from] != side[to] {
			sum += bits
		}
	}
	if _, err := congest.ClassicalExactDiameter(g, congest.WithObserver(obs)); err != nil {
		t.Fatal(err)
	}
	if sum != res.Transcript.Len() {
		t.Errorf("independent tally %d bits, transcript %d", sum, res.Transcript.Len())
	}
	// Determinism: further captures yield the identical bit string. The
	// frontier scheduler's observer replay (ascending sender order) must
	// reproduce the canonical delivery order bit for bit, so the Theorem
	// 10 transcript is a function of the inputs alone.
	for rep := 0; rep < 2; rep++ {
		again, err := TwoPartyFromCongest(red, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if again.Transcript.String() != res.Transcript.String() {
			t.Errorf("rep %d: transcript differs between runs", rep)
		}
		if again.Protocol != res.Protocol || again.CutBits != res.CutBits || again.Rounds != res.Rounds {
			t.Errorf("rep %d: protocol accounting differs between runs", rep)
		}
	}
}

func TestLowerBoundRounds(t *testing.T) {
	t2, t3 := LowerBoundRounds(100, 4, 9, 16)
	if t2 != 5 {
		t.Errorf("theorem2 = %g, want 5", t2)
	}
	if t3 < 6.6 || t3 > 6.8 { // sqrt(900/20) = sqrt(45) = 6.7
		t.Errorf("theorem3 = %g", t3)
	}
}

func TestSideOf(t *testing.T) {
	red, err := NewACHK16(4)
	if err != nil {
		t.Fatal(err)
	}
	side := red.SideOf()
	for _, u := range red.Un {
		if side[u] != 0 {
			t.Errorf("u %d side %d", u, side[u])
		}
	}
	for _, v := range red.Vn {
		if side[v] != 1 {
			t.Errorf("v %d side %d", v, side[v])
		}
	}
	// Every cut edge goes between the sides.
	for _, e := range red.CutEdges {
		if side[e[0]] == side[e[1]] {
			t.Errorf("cut edge %v within one side", e)
		}
	}
}

// CriticalPairDistance returns d(l_i, r_i) in the ACHK16 construction for
// the given inputs: 5 when x_i = y_i = 1, at most 4 otherwise.
func CriticalPairDistance(red *Reduction, x, y *bitstring.Bits, i int) (int, error) {
	g, err := red.Build(x, y)
	if err != nil {
		return 0, err
	}
	m := red.K
	q := bits.Len(uint(m - 1))
	if q < 1 {
		q = 1
	}
	off := m + 2*q + 1
	return g.Distance(i, off+i)
}

// PairDistanceIs3 reports, for the HW12 construction, whether the distance
// between l_i and r'_j equals 3 in Gn(x, y) — the paper's witness property:
// it must hold exactly when x_{ij} = y_{ij} = 1.
func PairDistanceIs3(red *Reduction, x, y *bitstring.Bits, s, i, j int) (bool, error) {
	g, err := red.Build(x, y)
	if err != nil {
		return false, err
	}
	d, err := g.Distance(i, 3*s+1+j)
	if err != nil {
		return false, err
	}
	return d >= 3, nil
}

// VerifySubdivided checks the Figure 8 property for one input pair: the
// diameter of G'_n(x, y) must be at most d+d1 when the inputs are disjoint
// and exactly d+d2 when they intersect (at least d+d2 by condition (ii) of
// Definition 3; at most because every pair can cross the cut once and
// in-side distances are unchanged).
func VerifySubdivided(red *Reduction, x, y *bitstring.Bits, d int) error {
	sub, err := BuildSubdivided(red, x, y, d)
	if err != nil {
		return err
	}
	diam, err := sub.G.Diameter()
	if err != nil {
		return err
	}
	disj, err := bitstring.Disj(x, y)
	if err != nil {
		return err
	}
	if disj == 1 {
		if diam > sub.LeftDiameter {
			return fmt.Errorf("reduction %s/d=%d: disjoint inputs give diameter %d, want <= %d",
				red.Name, d, diam, sub.LeftDiameter)
		}
		return nil
	}
	if diam != sub.RightDiameter {
		return fmt.Errorf("reduction %s/d=%d: intersecting inputs give diameter %d, want %d",
			red.Name, d, diam, sub.RightDiameter)
	}
	return nil
}

// MaxCutTrafficPerRound returns the maximum possible cut traffic per round
// for the reduction under the given graph's default bandwidth: b edges
// times bandwidth bits, the O(b log n) factor of Theorem 10.
func MaxCutTrafficPerRound(red *Reduction) int {
	return red.B * congest.DefaultBandwidth(red.Base.N())
}

// mustPair draws one input pair of length n from gen, failing the test on
// an error.
func mustPair(t *testing.T, gen func(int, *rand.Rand) (x, y *bitstring.Bits, err error), n int, rng *rand.Rand) (x, y *bitstring.Bits) {
	t.Helper()
	x, y, err := gen(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}
