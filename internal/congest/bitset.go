package congest

// bitset is the compressed vertex-set representation behind the frontier
// scheduler: a word layer with one bit per vertex, plus a summary layer
// with one bit per word-layer word (set iff that word is non-zero).
// Inserts are O(1); iteration and clearing walk only the summary bits that
// are set, so both cost O(set/64 + n/4096) instead of O(n) — at ten million
// vertices an empty-ish frontier costs a scan of ~2400 summary words, not
// ten million booleans.

import "math/bits"

type bitset struct {
	words []uint64 // bit v&63 of words[v>>6]: vertex v is in the set
	sum   []uint64 // bit w&63 of sum[w>>6]: words[w] is non-zero
}

func newBitset(n int) *bitset {
	nw := (n + 63) >> 6
	return &bitset{
		words: make([]uint64, nw),
		sum:   make([]uint64, (nw+63)>>6),
	}
}

// add inserts v and reports whether it was absent.
func (b *bitset) add(v int32) bool {
	w := uint32(v) >> 6
	mask := uint64(1) << (uint32(v) & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.sum[w>>6] |= 1 << (w & 63)
	return true
}

// clear empties the set, touching only the words the summary layer names.
func (b *bitset) clear() {
	for si, sw := range b.sum {
		if sw == 0 {
			continue
		}
		base := si << 6
		for sw != 0 {
			b.words[base+bits.TrailingZeros64(sw)] = 0
			sw &= sw - 1
		}
		b.sum[si] = 0
	}
}
