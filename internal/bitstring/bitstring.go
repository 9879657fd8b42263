// Package bitstring provides packed fixed-length bit vectors used as inputs
// to the two-party disjointness experiments (Section 2.2 of the paper).
package bitstring

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Bits is a fixed-length bit vector packed into uint64 words.
type Bits struct {
	n     int
	words []uint64
}

// New returns an all-zero bit vector of length n.
func New(n int) *Bits {
	if n < 0 {
		n = 0
	}
	return &Bits{n: n, words: make([]uint64, (n+63)/64)}
}

// FromString parses a string of '0' and '1' runes.
func FromString(s string) (*Bits, error) {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			b.Set(i, true)
		default:
			return nil, fmt.Errorf("bitstring: invalid rune %q at %d", r, i)
		}
	}
	return b, nil
}

// Len returns the number of bits.
func (b *Bits) Len() int { return b.n }

// Get returns bit i.
func (b *Bits) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Set assigns bit i.
func (b *Bits) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		return
	}
	if v {
		b.words[i/64] |= 1 << (uint(i) % 64)
	} else {
		b.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// AppendBit grows the vector by one bit holding v. It makes Bits usable as
// a transcript accumulator (e.g. the Theorem 10 cut-traffic capture).
func (b *Bits) AppendBit(v bool) {
	if b.n%64 == 0 && b.n/64 == len(b.words) {
		b.words = append(b.words, 0)
	}
	if v {
		b.words[b.n/64] |= 1 << (uint(b.n) % 64)
	}
	b.n++
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	c := 0
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}

// Clone returns a deep copy.
func (b *Bits) Clone() *Bits {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// String renders the bits as a '0'/'1' string.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Disj computes the disjointness function of the paper: DISJ(x, y) = 0 iff
// there is an index i with x_i = y_i = 1, and 1 otherwise. Nil inputs and
// inputs of different lengths are errors.
func Disj(x, y *Bits) (int, error) {
	if x == nil || y == nil {
		return 0, errors.New("bitstring: nil input")
	}
	if x.n != y.n {
		return 0, fmt.Errorf("bitstring: length mismatch %d vs %d", x.n, y.n)
	}
	for i := range x.words {
		if x.words[i]&y.words[i] != 0 {
			return 0, nil
		}
	}
	return 1, nil
}

// errNilRng is what the random pair generators return for a nil rng.
var errNilRng = errors.New("bitstring: nil rng")

// RandomDisjointPair returns (x, y) with DISJ(x, y) = 1: each index is
// assigned to x only, y only, or neither. A pair of length 0 is valid; a
// nil rng is an error.
func RandomDisjointPair(n int, rng *rand.Rand) (x, y *Bits, err error) {
	if rng == nil {
		return nil, nil, errNilRng
	}
	x, y = New(n), New(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			x.Set(i, true)
		case 1:
			y.Set(i, true)
		}
	}
	return x, y, nil
}

// RandomIntersectingPair returns (x, y) with DISJ(x, y) = 0: a random pair
// plus one forced common index. It needs n >= 1, which has a common index
// to force, and a non-nil rng.
func RandomIntersectingPair(n int, rng *rand.Rand) (x, y *Bits, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("bitstring: intersecting pair of length %d, want at least 1", n)
	}
	if x, y, err = RandomDisjointPair(n, rng); err != nil {
		return nil, nil, err
	}
	i := rng.Intn(n)
	x.Set(i, true)
	y.Set(i, true)
	return x, y, nil
}
