package congest

// Native Go fuzz harnesses for the wire layer and the streamed topology
// build. Two wire properties are enforced:
//
//   - round-trip: any sequence of (width, value) fields packed by Writer is
//     read back bit-exactly by Reader, and the cursor arithmetic matches the
//     declared widths;
//   - robustness: decoding arbitrary bytes as any registered message kind
//     must either succeed or return an error through Reader.Err — it must
//     NEVER panic, whatever the payload (truncated, oversized, garbage).
//
// FuzzTopologyFromStream checks that no edge stream, however malformed,
// makes the CSR build or the topology constructor panic.
//
// Seed corpora are checked in under testdata/fuzz (plus the f.Add seeds
// below). CI runs a short `-fuzz` smoke on every target; longer local runs:
//
//	go test -run '^$' -fuzz '^FuzzWireRoundTrip$'      -fuzztime 60s ./internal/congest
//	go test -run '^$' -fuzz '^FuzzWireMessage$'        -fuzztime 60s ./internal/congest
//	go test -run '^$' -fuzz '^FuzzTopologyFromStream$' -fuzztime 60s ./internal/congest

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"qcongest/internal/graph"
)

// wordsFromBytes packs fuzz bytes into the little-endian uint64 words the
// Reader consumes; the bit stream is exactly 8*len(data) bits long.
func wordsFromBytes(data []byte) []uint64 {
	words := make([]uint64, (len(data)+7)/8)
	for i, b := range data {
		words[i/8] |= uint64(b) << (8 * uint(i%8))
	}
	return words
}

// FuzzWireRoundTrip drives Writer/Reader with an arbitrary schedule of field
// widths and values decoded from the fuzz input: whatever was written must
// read back identically, and the bit cursor must advance by exactly the
// declared widths.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0xff, 0x01, 64, 0xab, 0xcd, 0, 0x00, 0x00, 1, 0x01, 0x00})
	f.Add([]byte{13, 0x34, 0x12, 63, 0xff, 0xff, 32, 0x78, 0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		type field struct {
			width int
			value uint64
		}
		var fields []field
		var w Writer
		w.Reset(1 << 16)
		total := 0
		for i := 0; i+2 < len(data) && len(fields) < 64; i += 3 {
			width := int(data[i]) % 65 // 0..64, all legal
			value := uint64(data[i+1]) | uint64(data[i+2])<<8
			if width < 64 {
				value &= (1 << uint(width)) - 1
			}
			w.WriteUint(value, width)
			if w.Err() != nil {
				t.Fatalf("masked value %d must fit %d-bit field: %v", value, width, w.Err())
			}
			fields = append(fields, field{width, value})
			total += width
			if w.Len() != total {
				t.Fatalf("Len() = %d after %d declared bits", w.Len(), total)
			}
		}
		r := Reader{N: 1 << 16, words: w.words, off: 0, end: w.Len()}
		for i, fd := range fields {
			got := r.ReadUint(fd.width)
			if r.Err() != nil {
				t.Fatalf("field %d: %v", i, r.Err())
			}
			if got != fd.value {
				t.Fatalf("field %d: read %d, wrote %d (width %d)", i, got, fd.value, fd.width)
			}
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left after reading every field", r.Remaining())
		}
		// The packed fast path's raw writer must lay down the identical bit
		// stream (values are pre-masked, so the unvalidated append is legal),
		// and arenaWord (the decode fast path's read) must read any <= 64-bit
		// span back exactly from any bit offset.
		var wr Writer
		wr.Reset(1 << 16)
		for _, fd := range fields {
			if fd.width > 0 { // writeRaw's contract: 0 < width (tag included)
				wr.writeRaw(fd.value, fd.width)
			}
		}
		if wr.Len() != w.Len() || !reflect.DeepEqual(wr.words, w.words) {
			t.Fatalf("writeRaw stream (%d bits) differs from WriteUint stream (%d bits)", wr.Len(), w.Len())
		}
		off := 0
		for i, fd := range fields {
			if fd.width > 0 {
				if got := arenaWord(w.words, off>>6, uint(off&63), fd.width); got != fd.value {
					t.Fatalf("field %d: arenaWord = %#x at offset %d, wrote %#x (width %d)",
						i, got, off, fd.value, fd.width)
				}
			}
			off += fd.width
		}
		// Reading past the end must error, not panic, and subsequent reads
		// stay zero.
		if v := r.ReadUint(1); v != 0 || r.Err() == nil {
			t.Fatalf("overrun read: %d, err %v", v, r.Err())
		}
		// Out-of-range widths are encoding errors on both sides.
		w.WriteUint(0, 65)
		if w.Err() == nil {
			t.Fatal("width 65 accepted by Writer")
		}
	})
}

// wireSeeds are FuzzWireMessage's in-code seeds, in f.Add order (which
// fixes their seed#i names). TestPackedWireCorpusDifferential replays them
// too, so every kind's single-word path is exercised even before a fuzz
// run has grown the corpus directory.
var wireSeeds = []corpusEntry{
	{"seed-wave", uint8(KindWave), 64, []byte{0xaa, 0x05}},
	{"seed-near", uint8(KindNear), 300, []byte{0xff, 0xff, 0x01}},
	{"seed-wdist", uint8(KindWDist), 40, []byte{0x10, 0x27}},
	{"seed-raw", uint8(KindRaw), 9, []byte{0x00, 0x11, 0x22, 0x33}},
	{"seed-child", uint8(KindChild), 2, []byte{}},
	{"seed-adj", uint8(KindAdj), 40, []byte{0x1f}},
	{"seed-side", uint8(KindSide), 12, []byte{0x01}},
	{"seed-cutsum-ok", uint8(KindCutSum), 40, []byte{0x7f}},              // 127 < bound: clean
	{"seed-cutsum-range", uint8(KindCutSum), 40, []byte{0xff}},           // 255 > bound: id range error
	{"seed-cutsum-trunc", uint8(KindCutSum), 1000, []byte{}},             // truncated
	{"seed-skelup-ok", uint8(KindSkelUp), 40, []byte{0x83, 0x01}},        // slot 3, mid value: clean
	{"seed-skelup-range", uint8(KindSkelUp), 40, []byte{0xff, 0xff}},     // value past Bound+1: id range error
	{"seed-skelup-trunc", uint8(KindSkelUp), 1000, []byte{0x05}},         // truncated value field
	{"seed-skeldown-ok", uint8(KindSkelDown), 40, []byte{0x00, 0x00}},    // slot 0, value 0: clean
	{"seed-skeldown-range", uint8(KindSkelDown), 40, []byte{0xfc, 0xff}}, // slot past Slots: id range error
	{"seed-skeldown-trunc", uint8(KindSkelDown), 1000, []byte{}},         // truncated slot field
	{"seed-srcmax-ok", uint8(KindSrcMax), 40, []byte{0x83, 0x0c}},        // slot 3, max 50: clean
	{"seed-srcmax-range", uint8(KindSrcMax), 40, []byte{0xc3, 0x1f}},     // max 127 past 2n: id range error
	{"seed-srcmax-trunc", uint8(KindSrcMax), 1000, []byte{0x05, 0x00}},   // truncated max field
}

// fuzzKind maps a FuzzWireMessage input's kind byte and size to the kind
// and network size the harness decodes with (n >= 1).
func fuzzKind(kindByte uint8, nRaw uint16) (Kind, int) {
	return Kind(kindByte % numKinds), max(int(nRaw), 1)
}

// diffWireEntry runs diffDecode on one FuzzWireMessage input, under the
// harness's configuration (bound = 4n), when the kind is registered; it
// reports whether the single-word path was checked.
func diffWireEntry(t *testing.T, e corpusEntry) bool {
	k, n := fuzzKind(e.kind, e.n)
	if !Registered(k) {
		return false
	}
	var payload uint64
	for i, b := range e.data {
		payload |= uint64(b) << (8 * uint(i))
	}
	return diffDecode(t, e.name, k, n, 4*n, payload, 8*len(e.data))
}

// FuzzWireMessage decodes arbitrary bytes as every registered message kind:
// malformed input must surface as a Reader error (or a clean partial
// decode), never as a panic or an out-of-bounds access. When a decode
// consumes the payload cleanly, the message must re-marshal and re-decode to
// the identical value (the codec-pair consistency the engine's Decode
// enforces). Whenever the payload fits one word with its tag, the engine's
// single-word decode must also accept and reject the same inputs as the
// field-by-field decode and yield the same value (diffDecode).
func FuzzWireMessage(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add(s.kind, s.n, s.data)
	}
	f.Fuzz(func(t *testing.T, kindByte uint8, nRaw uint16, data []byte) {
		k, n := fuzzKind(kindByte, nRaw)
		if !Registered(k) {
			return
		}
		diffWireEntry(t, corpusEntry{name: "fuzz", kind: kindByte, n: nRaw, data: data})
		// Bound-parameterized kinds: the decoder's bound is configuration,
		// like n; derive it from the fuzzed size.
		m := NewKindMessage(k)
		configureBounds(m, n, 4*n)
		words := wordsFromBytes(data)
		r := Reader{N: n, words: words, off: 0, end: 8 * len(data)}
		m.UnmarshalWire(&r) // must not panic, whatever the bytes
		if r.Err() != nil || r.Remaining() != 0 {
			return // malformed or partial: correctly reported, nothing to re-check
		}
		// Clean decode: the codec pair must round-trip.
		var w Writer
		w.Reset(n)
		m.MarshalWire(&w)
		if w.Err() != nil {
			t.Fatalf("%v: clean decode %+v does not re-marshal: %v", k, m, w.Err())
		}
		if w.Len() != 8*len(data) {
			t.Fatalf("%v: decoded %d bits, re-encoded %d", k, 8*len(data), w.Len())
		}
		m2 := NewKindMessage(k)
		configureBounds(m2, n, 4*n)
		r2 := Reader{N: n, words: w.words, off: 0, end: w.Len()}
		m2.UnmarshalWire(&r2)
		if r2.Err() != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("%v: round trip %+v -> %+v (err %v)", k, m, m2, r2.Err())
		}
	})
}

// FuzzTopologyFromStream streams arbitrary edge lists through
// graph.BuildCSRFromStream into NewTopologyFromCSR. Endpoints range over
// [-1, n], so out-of-range edges, self-loops and duplicates all occur; a
// nonzero drift makes the stream's second pass differ from its first (one
// edge shifted, or dropped when drift's high bit is set); a nonzero corrupt
// flips the low bit of one CSR offset or target between the two calls.
// Neither call may panic. Whenever a topology is built, it must be
// symmetric, its cached maximum degree must equal its longest row, and
// neighborIndex must agree with a linear scan of the row for every pair,
// including out-of-range ones.
//
// When the CSR is built and left uncorrupted, a *graph.Graph is built from
// the same stream and NewTopology must agree with NewTopologyFromCSR:
// both reject the graph as disconnected, or both give the same topology.
// A weighted copy of that graph (weights up to 9), through NewTopology and
// through BuildCSR plus NewTopologyFromCSR, must agree the same way.
func FuzzTopologyFromStream(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4}, uint8(0), uint16(0))       // path
	f.Add(uint8(5), []byte{1, 2, 1, 3, 1, 4, 1, 5}, uint8(0), uint16(0)) // star
	f.Add(uint8(3), []byte{1, 2, 2, 3, 3, 1}, uint8(0), uint16(0))       // triangle
	f.Add(uint8(4), []byte{2, 1, 4, 3, 3, 1}, uint8(0), uint16(0))       // rows out of order
	f.Add(uint8(3), []byte{1, 2, 2, 1, 2, 3}, uint8(0), uint16(0))       // duplicate edge
	f.Add(uint8(3), []byte{1, 1, 2, 3}, uint8(0), uint16(0))             // self-loop
	f.Add(uint8(3), []byte{0, 2, 2, 4}, uint8(0), uint16(0))             // out of range
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4}, uint8(2), uint16(0))       // second pass shifts
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4}, uint8(0x83), uint16(0))    // second pass drops
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4}, uint8(0), uint16(4))       // offset flipped
	f.Add(uint8(4), []byte{1, 2, 2, 3, 3, 4}, uint8(0), uint16(7))       // target flipped
	f.Add(uint8(1), []byte{}, uint8(0), uint16(0))                       // single vertex
	f.Fuzz(func(t *testing.T, nRaw uint8, edges []byte, drift uint8, corrupt uint16) {
		n := int(nRaw % 64)
		endpoint := func(b byte) int { return int(b)%(n+2) - 1 }
		passes := 0
		stream := func(emit func(u, v int)) {
			passes++
			for i := 0; i+1 < len(edges); i += 2 {
				u, v := endpoint(edges[i]), endpoint(edges[i+1])
				if passes > 1 && drift&0x7f != 0 && i/2 == int(drift&0x7f)-1 {
					if drift&0x80 != 0 {
						continue
					}
					v++
				}
				emit(u, v)
			}
		}
		c, err := graph.BuildCSRFromStream(n, stream)
		if err != nil {
			return
		}
		if corrupt != 0 {
			i := int(corrupt >> 1)
			if corrupt&1 == 0 {
				c.Offsets[i%len(c.Offsets)] ^= 1
			} else if len(c.Targets) > 0 {
				c.Targets[i%len(c.Targets)] ^= 1
			}
		}
		topo, err := NewTopologyFromCSR(c)
		if corrupt == 0 {
			g := graph.New(n)
			stream(func(u, v int) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatalf("stream accepted by the CSR build: %v", err)
				}
			})
			sameTopology(t, "unweighted", g, topo, err)
			gw := graph.WithWeights(g, 9, int64(len(edges)))
			cw, errW := gw.BuildCSR()
			if errW != nil {
				t.Fatal(errW)
			}
			topoW, errW := NewTopologyFromCSR(cw)
			sameTopology(t, "weighted", gw, topoW, errW)
		}
		if err != nil {
			return
		}
		longest := 0
		for u := 0; u < topo.N(); u++ {
			row := topo.Neighbors(u)
			longest = max(longest, len(row))
			for v := -1; v <= topo.N(); v++ {
				if got, want := topo.neighborIndex(u, v), slices.Index(row, v); got != want {
					t.Fatalf("neighborIndex(%d, %d) = %d, linear scan of %v finds %d", u, v, got, row, want)
				}
			}
			for _, v := range row {
				if !topo.HasEdge(v, u) {
					t.Fatalf("accepted an asymmetric CSR: row %d lists %d, row %d = %v", u, v, v, topo.Neighbors(v))
				}
			}
		}
		if topo.maxDeg != longest {
			t.Fatalf("maxDeg = %d, longest row has %d neighbors", topo.maxDeg, longest)
		}
		if topo.neighborIndex(-1, 0) != -1 || topo.neighborIndex(topo.N(), 0) != -1 {
			t.Fatal("neighborIndex accepts an out-of-range sender")
		}
	})
}

// sameTopology asserts that NewTopology(g) agrees with a topology built
// from g's CSR (got, or its error): both report ErrDisconnected, or both
// succeed with identical rows, weights, MaxWeight and maxDeg.
func sameTopology(t *testing.T, name string, g *graph.Graph, got *Topology, gotErr error) {
	t.Helper()
	want, wantErr := NewTopology(g)
	if errors.Is(gotErr, graph.ErrDisconnected) != errors.Is(wantErr, graph.ErrDisconnected) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: NewTopologyFromCSR err = %v, NewTopology err = %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got.N() != want.N() || got.MaxWeight() != want.MaxWeight() || got.maxDeg != want.maxDeg || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: n/maxW/maxDeg/weighted = %d/%d/%d/%v from the CSR, %d/%d/%d/%v from the graph", name,
			got.N(), got.MaxWeight(), got.maxDeg, got.Weighted(), want.N(), want.MaxWeight(), want.maxDeg, want.Weighted())
	}
	for v := 0; v < want.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || !slices.Equal(got.NeighborWeights(v), want.NeighborWeights(v)) {
			t.Fatalf("%s: row %d = %v %v from the CSR, %v %v from the graph", name, v,
				got.Neighbors(v), got.NeighborWeights(v), want.Neighbors(v), want.NeighborWeights(v))
		}
	}
}
