package congest

// Differential tests for the single-word wire fast path: the derived
// pack/unpack pair of every built-in kind must agree bit-for-bit with the
// derived field-by-field codec (marshal/unmarshal) — on valid messages (both
// the encode and the decode half), at degenerate Bound configurations, and
// on every checked-in fuzz corpus entry (whatever the field-by-field path
// refuses, the single-word path must refuse too).

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// configureBounds installs the configuration fields (never transmitted) that
// Bound-parameterized kinds need before encoding or decoding, mirroring the
// programs' receive-side setup: Slots = n and the given Bound. The tests use
// bound = 4n unless they probe degenerate bounds.
func configureBounds(m WireMessage, n, bound int) {
	switch wm := m.(type) {
	case *msgWDist:
		wm.Bound = bound
	case *msgAgg:
		wm.Bound = bound
	case *msgSlot:
		wm.Slots = n
		wm.Bound = bound
	}
}

// wireSizes is the network-size sweep of the differential and layout tests.
var wireSizes = []int{1, 2, 3, 7, 40, 1000, 65536}

// boundKinds are the kinds whose field bounds depend on configuration
// besides n.
var boundKinds = []Kind{KindWDist, KindWMax, KindCutSum, KindSkelUp, KindSkelDown}

// packedCases returns, for network size n, representative valid messages of
// every built-in kind, with fields at the extremes of their ranges.
// Bound-parameterized kinds use bound = 4n so the values line up with
// configureBounds on the decode side.
func packedCases(n int) []WireMessage {
	b := 4 * n
	return []WireMessage{
		&msgActivate{Dist: 0},
		&msgActivate{Dist: n - 1},
		&msgChild{},
		&msgEccReport{Max: n / 2},
		&msgToken{Step: 4 * n},
		&msgWave{Tau: b, Delta: 0},
		&msgWave{Tau: 0, Delta: b},
		&msgAgg{kind: KindMax, Value: b, Witness: n - 1},
		&msgBcast{Value: b / 2},
		&msgNear{Dist: 2*n - 1, Src: 0},
		&msgAgg{kind: KindSum, Value: 0},
		&msgAgg{kind: KindSum, Value: 1<<uint(2*BitsForID(n)) - 1},
		&msgPair{Src: n - 1, Dist: 2*n - 1},
		&msgSlot{kind: KindSrcMax, Slot: 0, Val: 2*n - 1},
		&msgWDist{Dist: b, Bound: b},
		&msgAgg{kind: KindWMax, Value: b, Witness: n - 1, Bound: b},
		&msgAdj{ID: n - 1},
		&msgSide{Marked: 1},
		&msgSide{Marked: 0},
		&msgAgg{kind: KindCutSum, Value: b, Bound: b},
		&msgSlot{kind: KindSkelUp, Slot: n - 1, Val: b + 1, Slots: n, Bound: b},
		&msgSlot{kind: KindSkelDown, Slot: 0, Val: 0, Slots: n, Bound: b},
	}
}

// diffEncode checks the encode half for one message: pack must succeed
// exactly when marshal succeeds within one word, and lay down the identical
// bits (tag included).
func diffEncode(t *testing.T, m WireMessage, n int) {
	t.Helper()
	k := m.WireKind()
	var w Writer
	w.Reset(n)
	w.WriteUint(uint64(k), KindBits)
	m.MarshalWire(&w)
	payload, width, ok := m.(fieldMessage).fields(n).pack()
	if want := w.Err() == nil && w.Len() <= 64; ok != want {
		t.Fatalf("n=%d %v %+v: pack ok=%v, marshal ok=%v (err %v, %d bits)", n, k, m, ok, want, w.Err(), w.Len())
	}
	if !ok {
		return
	}
	if KindBits+width != w.Len() {
		t.Fatalf("n=%d %v: packed width %d+%d, marshal %d bits", n, k, KindBits, width, w.Len())
	}
	if word := uint64(k) | payload<<KindBits; w.words[0] != word {
		t.Fatalf("n=%d %v %+v: packed word %#x, marshal bits %#x", n, k, m, word, w.words[0])
	}
}

// diffDecode checks the decode half for one payload of width bits decoded
// as kind k at network size n and the given Bound: unpack must accept
// exactly what unmarshal decodes cleanly, yield the identical message, and
// re-pack to the identical payload. Kinds with hand-written codecs (raw)
// and payloads over one word have no fast path and are skipped; the return
// value reports whether the payload was checked.
func diffDecode(t *testing.T, name string, k Kind, n, bound int, payload uint64, width int) bool {
	t.Helper()
	gm, pm := NewKindMessage(k), NewKindMessage(k)
	if _, ok := gm.(fieldMessage); !ok || KindBits+width > 64 {
		return false
	}
	configureBounds(gm, n, bound)
	configureBounds(pm, n, bound)
	r := Reader{N: n, words: []uint64{payload}, end: width}
	gm.UnmarshalWire(&r)
	clean := r.Err() == nil && r.Remaining() == 0
	fs := pm.(fieldMessage).fields(n)
	if got := fs.unpack(payload, width); got != clean {
		t.Fatalf("%s (%v, n=%d, bound=%d, %#x/%d bits): unmarshal clean=%v, unpack=%v (err %v)",
			name, k, n, bound, payload, width, clean, got, r.Err())
	}
	if !clean {
		return true
	}
	if !reflect.DeepEqual(gm, pm) {
		t.Fatalf("%s (%v, n=%d): unmarshal %+v, unpack %+v", name, k, n, gm, pm)
	}
	if rp, rw, ok := fs.pack(); !ok || rw != width || rp != payload {
		t.Fatalf("%s (%v, n=%d): re-pack (%#x, %d, %v) of clean decode, want (%#x, %d, true)",
			name, k, n, rp, rw, ok, payload, width)
	}
	return true
}

// wireDigest hashes the encodings (tag included) of every packedCases
// message of kind k across wireSizes: each message's bit length, then its
// words, as MarshalWire lays them down.
func wireDigest(k Kind) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, n := range wireSizes {
		for _, m := range packedCases(n) {
			if m.WireKind() != k {
				continue
			}
			var w Writer
			w.Reset(n)
			w.WriteUint(uint64(k), KindBits)
			m.MarshalWire(&w)
			binary.LittleEndian.PutUint64(buf[:], uint64(w.Len()))
			h.Write(buf[:])
			for _, word := range w.words[:(w.Len()+63)/64] {
				binary.LittleEndian.PutUint64(buf[:], word)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestWireLayoutPinned pins the exact encoding of every built-in kind
// across wireSizes to digests recorded from the hand-written codecs the
// field lists replaced: a change to any field's order, bound or width, or
// to the accept set at the extremes packedCases probes, fails here.
func TestWireLayoutPinned(t *testing.T) {
	want := map[Kind]uint64{
		KindActivate:  0x192598e1567489bf,
		KindChild:     0x9de9416fdde94ca2,
		KindEccReport: 0xaf5eed22779f195f,
		KindToken:     0x3348de09d4ee693f,
		KindWave:      0xfb13769f415a2a00,
		KindMax:       0xd22107d7efd03700,
		KindBcast:     0x145c43ed43695c1f,
		KindNear:      0xee305419c9c5e4fa,
		KindSum:       0x11b45cd41381d3ae,
		KindPair:      0x986b66b94ba18154,
		KindSrcMax:    0x3344a526e243d737,
		KindWDist:     0x760e973cbf8dfc02,
		KindWMax:      0xba794881a0f35288,
		KindAdj:       0xb3210be39cd28151,
		KindSide:      0x3acc045c90a44945,
		KindCutSum:    0xccf695b7c4c780ee,
		KindSkelUp:    0x2758fd600b1bb3ae,
		KindSkelDown:  0xb27314705c7dd6b2,
	}
	for _, k := range RegisteredKinds() {
		if _, ok := NewKindMessage(k).(fieldMessage); !ok {
			continue
		}
		if got := wireDigest(k); got != want[k] {
			t.Errorf("%v: wire digest %#x, want %#x: the encoding changed", k, got, want[k])
		}
	}
}

// TestPackedWireMatchesGeneric checks both halves of the fast path against
// the field-by-field codec for every built-in kind across a sweep of network
// sizes, then probes the Bound-parameterized kinds at Bound -1 and 0, where
// no value (Bound -1) or only zero (Bound 0) fits the bound-ranged field.
func TestPackedWireMatchesGeneric(t *testing.T) {
	covered := map[Kind]bool{}
	for _, n := range wireSizes {
		for _, m := range packedCases(n) {
			k := m.WireKind()
			covered[k] = true
			diffEncode(t, m, n)
			var w Writer
			w.Reset(n)
			m.MarshalWire(&w)
			payload := uint64(0)
			if len(w.words) > 0 {
				payload = w.words[0]
			}
			if w.Len() <= 64-KindBits && !diffDecode(t, "case", k, n, 4*n, payload, w.Len()) {
				t.Fatalf("n=%d %v: single-word case not checked", n, k)
			}
		}
	}
	for _, k := range RegisteredKinds() {
		if _, ok := NewKindMessage(k).(fieldMessage); ok && !covered[k] {
			t.Errorf("%v has a field list but packedCases has no case for it", k)
		}
	}

	for _, bound := range []int{-1, 0} {
		for _, n := range []int{1, 2, 40} {
			for _, k := range boundKinds {
				for _, v := range []int{0, 1} {
					m := NewKindMessage(k)
					configureBounds(m, n, bound)
					fs := m.(fieldMessage).fields(n)
					for _, f := range []wireField{fs.a, fs.b} {
						if f.v != nil {
							*f.v = v
						}
					}
					diffEncode(t, m, n)
				}
				for width := 0; width <= 8; width++ {
					for _, p := range []uint64{0, 1, 1<<uint(width) - 1} {
						diffDecode(t, "bound", k, n, bound, p&(1<<uint(width)-1), width)
					}
				}
			}
		}
	}
}

// corpusEntry is one FuzzWireMessage input: (kind byte, network size, raw
// payload bytes).
type corpusEntry struct {
	name string
	kind uint8
	n    uint16
	data []byte
}

// loadWireCorpus parses the checked-in fuzz corpus files under
// testdata/fuzz/FuzzWireMessage (Go fuzz v1 format: one typed literal per
// line, matching the harness signature byte/uint16/[]byte).
func loadWireCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzWireMessage")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	var entries []corpusEntry
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatalf("reading corpus file %s: %v", f.Name(), err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 4 || lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus file %s: unexpected format (%d lines)", f.Name(), len(lines))
		}
		e := corpusEntry{name: f.Name()}
		for _, line := range lines[1:] {
			switch {
			case strings.HasPrefix(line, "byte("):
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "byte("), ")"))
				if err != nil || len(s) != 1 {
					t.Fatalf("corpus file %s: bad byte line %q: %v", f.Name(), line, err)
				}
				e.kind = s[0]
			case strings.HasPrefix(line, "uint16("):
				v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "uint16("), ")"), 10, 16)
				if err != nil {
					t.Fatalf("corpus file %s: bad uint16 line %q: %v", f.Name(), line, err)
				}
				e.n = uint16(v)
			case strings.HasPrefix(line, "[]byte("):
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
				if err != nil {
					t.Fatalf("corpus file %s: bad []byte line %q: %v", f.Name(), line, err)
				}
				e.data = []byte(s)
			default:
				t.Fatalf("corpus file %s: unrecognized line %q", f.Name(), line)
			}
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found")
	}
	return entries
}

// TestPackedWireCorpusDifferential replays every checked-in FuzzWireMessage
// corpus entry and every in-code seed of that harness through both decode
// paths (diffDecode), under the harness's configuration (bound = 4n).
func TestPackedWireCorpusDifferential(t *testing.T) {
	checked := 0
	for _, e := range append(loadWireCorpus(t), wireSeeds...) {
		if diffWireEntry(t, e) {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no corpus entry exercised the single-word path")
	}
	t.Logf("differential-checked %d corpus entries", checked)
}
