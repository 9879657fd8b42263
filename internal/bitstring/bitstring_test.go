package bitstring

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d should start 0", i)
		}
		b.Set(i, true)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
		b.Set(i, false)
		if b.Get(i) {
			t.Errorf("bit %d not cleared", i)
		}
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	b := New(8)
	if b.Get(-1) || b.Get(8) {
		t.Error("out-of-range Get should return false")
	}
	b.Set(-1, true)
	b.Set(8, true)
	if b.Count() != 0 {
		t.Error("out-of-range Set should be a no-op")
	}
}

func TestFromStringAndString(t *testing.T) {
	s := "0110010011"
	b, err := FromString(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != s {
		t.Errorf("round trip = %q, want %q", b.String(), s)
	}
	if b.Count() != 5 {
		t.Errorf("Count = %d, want 5", b.Count())
	}
	if _, err := FromString("01x"); err == nil {
		t.Error("invalid rune accepted")
	}
}

func TestDisjConvention(t *testing.T) {
	x, _ := FromString("1010")
	y, _ := FromString("0101")
	if mustDisj(t, x, y) != 1 {
		t.Error("disjoint inputs should give DISJ=1")
	}
	y2, _ := FromString("0110")
	if mustDisj(t, x, y2) != 0 {
		t.Error("intersecting inputs should give DISJ=0")
	}
	if FirstCommon(x, y2) != 2 {
		t.Errorf("FirstCommon = %d, want 2", FirstCommon(x, y2))
	}
	if FirstCommon(x, y) != -1 {
		t.Errorf("FirstCommon = %d, want -1", FirstCommon(x, y))
	}
}

func TestDisjRejectsLengthMismatch(t *testing.T) {
	if _, err := Disj(New(3), New(4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// mustDisj is Disj on inputs of equal length.
func mustDisj(t *testing.T, x, y *Bits) int {
	t.Helper()
	d, err := Disj(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		x, y := mustPair(t, RandomDisjointPair, 70, rng)
		if mustDisj(t, x, y) != 1 {
			t.Fatalf("RandomDisjointPair produced intersecting pair %s %s", x, y)
		}
		x, y = mustPair(t, RandomIntersectingPair, 70, rng)
		if mustDisj(t, x, y) != 0 {
			t.Fatalf("RandomIntersectingPair produced disjoint pair %s %s", x, y)
		}
	}
	// A disjoint pair of length 0 is valid; an intersecting one needs a
	// common index, and neither draws from a nil rng.
	if x, y := mustPair(t, RandomDisjointPair, 0, rng); x.Len() != 0 || y.Len() != 0 {
		t.Errorf("RandomDisjointPair(0) has lengths %d, %d", x.Len(), y.Len())
	}
	for _, n := range []int{0, -1} {
		if _, _, err := RandomIntersectingPair(n, rng); err == nil {
			t.Errorf("RandomIntersectingPair(%d) returned no error", n)
		}
	}
	if _, _, err := RandomDisjointPair(3, nil); err == nil {
		t.Error("RandomDisjointPair with a nil rng returned no error")
	}
	if _, _, err := RandomIntersectingPair(3, nil); err == nil {
		t.Error("RandomIntersectingPair with a nil rng returned no error")
	}
}

func TestClone(t *testing.T) {
	b, _ := FromString("101")
	c := b.Clone()
	c.Set(1, true)
	if b.Get(1) {
		t.Error("clone shares storage")
	}
}

// Property: DISJ(x,y) == 0 exactly when FirstCommon >= 0, and Count is
// consistent with String.
func TestDisjProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Random(90, 0.3, rng)
		y := Random(90, 0.3, rng)
		d, err := Disj(x, y)
		fc := FirstCommon(x, y)
		if err != nil || (d == 0) != (fc >= 0) {
			return false
		}
		ones := 0
		for _, r := range x.String() {
			if r == '1' {
				ones++
			}
		}
		return ones == x.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAppendBit(t *testing.T) {
	b := New(0)
	pattern := "1011001110001111000011111000001"
	for _, r := range pattern {
		b.AppendBit(r == '1')
	}
	if b.Len() != len(pattern) || b.String() != pattern {
		t.Fatalf("appended %q (len %d), want %q", b.String(), b.Len(), pattern)
	}
	// Growth across word boundaries preserves earlier bits.
	for i := 0; i < 200; i++ {
		b.AppendBit(i%3 == 0)
	}
	if b.Len() != len(pattern)+200 {
		t.Fatalf("len = %d", b.Len())
	}
	for i, r := range pattern {
		if b.Get(i) != (r == '1') {
			t.Fatalf("bit %d corrupted after growth", i)
		}
	}
	for i := 0; i < 200; i++ {
		if b.Get(len(pattern)+i) != (i%3 == 0) {
			t.Fatalf("appended bit %d wrong", i)
		}
	}
	// AppendBit composes with a non-empty fixed-size start.
	c := New(64)
	c.Set(63, true)
	c.AppendBit(true)
	if c.Len() != 65 || !c.Get(63) || !c.Get(64) {
		t.Fatalf("append onto full word: %s", c.String())
	}
}

// Random returns a bit vector where each bit is 1 independently with
// probability p, drawn from rng.
func Random(n int, p float64, rng *rand.Rand) *Bits {
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i, true)
		}
	}
	return b
}

// FirstCommon returns the smallest index with x_i = y_i = 1, or -1.
func FirstCommon(x, y *Bits) int {
	if x.n != y.n {
		panic(fmt.Sprintf("bitstring: length mismatch %d vs %d", x.n, y.n))
	}
	for i := 0; i < x.n; i++ {
		if x.Get(i) && y.Get(i) {
			return i
		}
	}
	return -1
}

// mustPair draws one input pair of length n from gen, failing the test on
// an error.
func mustPair(t *testing.T, gen func(int, *rand.Rand) (x, y *Bits, err error), n int, rng *rand.Rand) (x, y *Bits) {
	t.Helper()
	x, y, err := gen(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}
