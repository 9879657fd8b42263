package congest

// This file defines the typed wire format every CONGEST message is encoded
// into. The engine never trusts a declared message size: each outbound
// message is marshalled into a packed bit arena, and all bandwidth
// accounting (Metrics.Bits, Metrics.MaxEdgeBits, bandwidth-violation
// errors, the cut-traffic transcripts of the lower-bound reductions) is
// derived from the encoded length. A message on the wire is
//
//	[ kind tag : KindBits bits ][ payload : message-specific bits ]
//
// with payload field widths fixed functions of n (the network size) or of
// per-node configuration known a priori (a distance bound), so every
// message is O(log n) bits — the CONGEST premise, made literal. Built-in
// kinds declare their payload once, as a list of bounded fields
// (wireFields); DESIGN.md ("Wire format") tabulates the encoding of every
// registered kind.

import (
	"fmt"
	"math/bits"
)

// Kind identifies a wire-message type. The tag is transmitted (and charged)
// with every message: a real network needs it to dispatch the payload, so
// the accounting includes it.
type Kind uint8

// KindBits is the width of the kind tag on the wire.
const KindBits = 5

// numKinds is the size of the kind space (tags must fit in KindBits bits).
const numKinds = 1 << KindBits

// The message kinds shipped with this package. Kinds 20..31 are free for
// external programs (see RegisterKind and the qcongest facade).
const (
	kindInvalid   Kind = iota
	KindActivate       // bfs.go: BFS activation / max-id flood (one id)
	KindChild          // bfs.go, approx.go: "you are my parent" (no payload)
	KindEccReport      // bfs.go: subtree max depth toward the root
	KindToken          // walk.go: DFS token step counter
	KindWave           // wave.go: (tau', delta) wave message
	KindMax            // aggregate.go: (value, witness) max convergecast
	KindBcast          // aggregate.go: root value broadcast
	KindNear           // ssp.go: (dist, src) nearest-member flood
	KindSum            // aggregate.go: partial sum convergecast
	KindPair           // ssp.go: (src rank, dist) multi-source BFS pair
	KindSrcMax         // aggregate.go: (src rank, subtree max) pipelined slot convergecast
	KindRaw            // wire.go: opaque filler of a declared width (tests, capacity probes)
	KindWDist          // weighted.go: Bellman–Ford weighted-distance relaxation
	KindWMax           // aggregate.go: weighted max convergecast (value, witness)
	KindAdj            // triangle.go: adjacency announcement (one id)
	KindSide           // cut.go: mark-flood side bit
	KindCutSum         // aggregate.go: crossing-weight sum convergecast (Bound-ranged)
	KindSkelUp         // aggregate.go: (slot, value) skeleton-vector gather toward the root
	KindSkelDown       // aggregate.go: (slot, value) skeleton-vector broadcast down the tree
)

// WireMessage is a message that can be encoded to and decoded from the wire
// format. MarshalWire must write exactly the bits UnmarshalWire reads; the
// engine charges the encoded length (tag included) against the edge
// bandwidth. Field widths are derived from Writer.N / Reader.N, which the
// engine sets to the network size.
type WireMessage interface {
	WireKind() Kind
	MarshalWire(w *Writer)
	UnmarshalWire(r *Reader)
}

// BitsDeclarer is an optional interface for external messages that
// additionally declare their size by formula. The declared value is never
// used for accounting; under WithStrictAccounting the engine cross-checks
// it against the encoded length and fails the run on mismatch, which turns
// the declared formulas into verified documentation. Built-in kinds with a
// field list (all but raw) do not implement it: their widths derive from
// the list that encodes them.
type BitsDeclarer interface {
	DeclaredBits(n int) int
}

// wireField is one field of a built-in kind's payload: a value in
// [0, bound), encoded in BitsForID(bound) bits. The bound is fixed by n or
// by the message's own configuration (never transmitted); a bound <= 0
// admits no value, so a message with such a field neither encodes nor
// decodes. The zero wireField (nil v, bound 0) is an unused field: no
// bits, no value.
type wireField struct {
	v     *int
	bound int
}

// width returns the field's encoded width in bits (0 for an unused field,
// whose bound is 0).
func (f wireField) width() int { return BitsForID(f.bound) }

// value returns the field's value and whether it is in range.
func (f wireField) value() (uint64, bool) {
	if f.v == nil {
		return 0, true
	}
	return uint64(*f.v), *f.v >= 0 && *f.v < f.bound
}

// store sets the field to a decoded value of width() bits, which is below
// 2^63 and so converts exactly, and reports whether it is in range.
func (f wireField) store(p uint64) bool {
	if f.v == nil {
		return true
	}
	if int(p) >= f.bound {
		return false
	}
	*f.v = int(p)
	return true
}

// wireFields is a built-in kind's payload, declared once: its fields in
// wire order, a first (lowest bits), then b; unused fields are left zero.
// Everything else about the kind is derived from this one list — the
// field-by-field codec (marshal/unmarshal), the single-word fast path the
// engine takes when tag and payload fit one uint64 (pack/unpack), and the
// declared width (bits) — so the views cannot disagree. It is a struct of
// two (pointer, bound) pairs rather than an array or a wider record because
// the compiler keeps a struct of at most four words in registers across
// the fields call; the alternatives go through memory and cost several
// nanoseconds per message on the hot path.
type wireFields struct{ a, b wireField }

// fieldMessage is implemented by every built-in kind but raw: fields(n)
// lists the message's own fields for a network of n vertices. External
// kinds keep hand-written codecs and take the generic path.
type fieldMessage interface {
	fields(n int) wireFields
}

// marshal writes the fields in order via WriteID, which reports any value
// outside its field's range.
func (fs wireFields) marshal(w *Writer) {
	for _, f := range [...]wireField{fs.a, fs.b} {
		if f.v != nil {
			w.WriteID(*f.v, f.bound)
		}
	}
}

// unmarshal reads the fields in order via ReadID, which reports truncation
// and out-of-range values.
func (fs wireFields) unmarshal(r *Reader) {
	for _, f := range [...]wireField{fs.a, fs.b} {
		if f.v != nil {
			*f.v = r.ReadID(f.bound)
		}
	}
}

// pack lays the payload out in one word with the bits marshal would write.
// ok is false when a value is out of range or the message would not fit
// one word with its tag; the engine then takes the field-by-field path,
// which produces the canonical encoding or error.
func (fs wireFields) pack() (payload uint64, width int, ok bool) {
	va, oka := fs.a.value()
	vb, okb := fs.b.value()
	wa := fs.a.width()
	width = wa + fs.b.width()
	return va | vb<<uint(wa), width, oka && okb && width <= 64-KindBits
}

// unpack is the inverse of pack: it decodes a payload of the given width
// (no bits set at or above it) and reports whether unmarshal would have
// decoded it cleanly (every value in range, every payload bit consumed). On
// false the fields may hold partial values; the engine then runs
// unmarshal, which overwrites them and reports the canonical error.
func (fs wireFields) unpack(payload uint64, width int) bool {
	wa := uint(fs.a.width())
	return width == int(wa)+fs.b.width() && fs.a.store(payload&(1<<wa-1)) && fs.b.store(payload>>wa)
}

// fields1 and fields2 build the field list of a one- or two-field kind.
func fields1(v *int, bound int) wireFields { return wireFields{a: wireField{v, bound}} }
func fields2(va *int, ba int, vb *int, bb int) wireFields {
	return wireFields{wireField{va, ba}, wireField{vb, bb}}
}

// kindInfo is one registry entry.
type kindInfo struct {
	name string
	new  func() WireMessage
}

var kindRegistry [numKinds]kindInfo

// RegisterKind registers a message kind with a human-readable name and a
// factory producing a zero value to decode into. Registering an already-
// registered kind panics (programmer error). The engine refuses to transmit
// unregistered kinds.
//
// The registry is read without synchronization by concurrent engines, so all
// registration must happen before any network runs — in practice from
// init functions, the convention every kind in this repository follows.
func RegisterKind(k Kind, name string, factory func() WireMessage) {
	// Both panics are unreachable from facade data: kinds are registered by
	// init functions with constant arguments, so a clash fails at start-up.
	if k == kindInvalid || int(k) >= numKinds {
		panic(fmt.Sprintf("congest: kind %d out of range", k))
	}
	if kindRegistry[k].name != "" {
		panic(fmt.Sprintf("congest: kind %d registered twice (%s, %s)", k, kindRegistry[k].name, name))
	}
	kindRegistry[k] = kindInfo{name: name, new: factory}
}

// Registered reports whether k has been registered.
func Registered(k Kind) bool {
	return int(k) < numKinds && kindRegistry[k].name != ""
}

// String returns the registered name of the kind.
func (k Kind) String() string {
	if Registered(k) {
		return kindRegistry[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Writer packs values into a little-endian bit stream over uint64 words.
// The zero value is ready after Reset. The engine keeps one Writer as the
// round arena: encoded messages accumulate back to back and the words are
// recycled every round, so steady-state encoding allocates nothing.
type Writer struct {
	// N is the network size; codecs derive their field widths from it.
	N int

	words []uint64
	bits  int // write cursor
	err   error
}

// Reset clears the writer for a new round, recycling the word storage, and
// sets the network size used for field widths.
func (w *Writer) Reset(n int) {
	used := (w.bits + 63) / 64
	clear(w.words[:used])
	w.bits = 0
	w.N = n
	w.err = nil
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.bits }

// Err returns the first encoding error (a value too wide for its field).
func (w *Writer) Err() error { return w.err }

// WriteUint appends the low `width` bits of v. Values that do not fit in
// the field are an encoding error: an honest encoder must never truncate.
func (w *Writer) WriteUint(v uint64, width int) {
	if w.err != nil {
		return
	}
	if width < 0 || width > 64 {
		w.err = fmt.Errorf("congest: field width %d out of [0,64]", width)
		return
	}
	if width < 64 && v>>uint(width) != 0 {
		w.err = fmt.Errorf("congest: value %d overflows %d-bit field", v, width)
		return
	}
	off := w.bits
	w.bits += width
	for need := (w.bits + 63) / 64; len(w.words) < need; {
		w.words = append(w.words, 0)
	}
	if width == 0 {
		return
	}
	i, sh := off/64, uint(off%64)
	w.words[i] |= v << sh
	if sh+uint(width) > 64 {
		w.words[i+1] |= v >> (64 - sh)
	}
}

// writeRaw appends the low `width` bits of v with no validation: the packed
// encode fast path, where the caller (Outbox.encode) already knows
// 0 < width <= 64 and that v has no bits at or above width. One straddling
// pair of word ORs replaces the per-field cursor walk of WriteUint.
func (w *Writer) writeRaw(v uint64, width int) {
	off := w.bits
	w.bits += width
	for need := (w.bits + 63) / 64; len(w.words) < need; {
		w.words = append(w.words, 0)
	}
	i, sh := off/64, uint(off%64)
	w.words[i] |= v << sh
	if sh+uint(width) > 64 {
		w.words[i+1] |= v >> (64 - sh)
	}
}

// WriteCount appends a non-negative counter in `width` bits. Negative
// values are an encoding error (reported as such, rather than as the
// huge-value overflow a bare uint64 conversion would produce).
func (w *Writer) WriteCount(v, width int) {
	if w.err != nil {
		return
	}
	if v < 0 {
		w.err = fmt.Errorf("congest: negative value %d in %d-bit counter field", v, width)
		return
	}
	w.WriteUint(uint64(v), width)
}

// WriteID appends a value in [0, bound) using BitsForID(bound) bits — the
// canonical encoding of "one of bound things" (vertex ids, distances,
// counters with a known cap). Negative values are an encoding error.
func (w *Writer) WriteID(v, bound int) {
	if w.err != nil {
		return
	}
	if v < 0 {
		w.err = fmt.Errorf("congest: negative value %d in id field", v)
		return
	}
	if v >= bound {
		w.err = fmt.Errorf("congest: value %d out of id range [0,%d)", v, bound)
		return
	}
	w.WriteUint(uint64(v), BitsForID(bound))
}

// view returns a read-only view of bits [off, off+nbits) of the stream. The
// returned view stays valid even if the writer's storage later grows (it
// references the backing array as of now, which already holds those bits).
func (w *Writer) view(off, nbits int) WireView {
	lo := off / 64
	hi := (off + nbits + 63) / 64
	return WireView{words: w.words[lo:hi], off: int32(off % 64), bits: int32(nbits)}
}

// Reader consumes a bit stream written by Writer. Reading past the end is
// an error (recorded, subsequent reads return zero).
type Reader struct {
	// N is the network size; codecs derive their field widths from it.
	N int

	words []uint64
	off   int // absolute read cursor in bits
	end   int // absolute end of the message in bits
	err   error
}

// Err returns the first decoding error (a read past the message end).
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.end - r.off }

// ReadUint consumes `width` bits and returns them as a value.
func (r *Reader) ReadUint(width int) uint64 {
	if r.err != nil {
		return 0
	}
	if width < 0 || width > 64 {
		r.err = fmt.Errorf("congest: field width %d out of [0,64]", width)
		return 0
	}
	if r.off+width > r.end {
		r.err = fmt.Errorf("congest: read of %d bits overruns message (%d left)", width, r.end-r.off)
		return 0
	}
	if width == 0 {
		return 0
	}
	i, sh := r.off/64, uint(r.off%64)
	v := r.words[i] >> sh
	if sh+uint(width) > 64 {
		v |= r.words[i+1] << (64 - sh)
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	r.off += width
	return v
}

// ReadID consumes an id field written by WriteID with the same bound. A
// decoded value outside [0, bound) is a decoding error — an honest encoder
// cannot produce it (WriteID validates the range), so it proves the payload
// is corrupt; reporting it here means malformed messages surface as Decode
// errors instead of leaking out-of-range ids into programs.
func (r *Reader) ReadID(bound int) int {
	v := int(r.ReadUint(BitsForID(bound)))
	if r.err == nil && v >= bound {
		r.err = fmt.Errorf("congest: decoded value %d out of id range [0,%d)", v, bound)
		return 0
	}
	return v
}

// WireView is a read-only window onto one encoded message (kind tag
// included) inside an engine arena. Views handed to observers are only
// valid for the duration of the callback round; copy the bits out (e.g.
// into a bitstring) to retain them.
// The struct is deliberately compact: every message buffered by the engine
// carries one.
type WireView struct {
	words []uint64
	off   int32 // bit offset of the message start within words[0]
	bits  int32 // encoded length, tag included
}

// Len returns the encoded length in bits, kind tag included.
func (v WireView) Len() int { return int(v.bits) }

// Bit returns bit i of the encoded message (0 = first bit of the tag).
func (v WireView) Bit(i int) bool {
	if i < 0 || i >= int(v.bits) {
		return false
	}
	p := int(v.off) + i
	return v.words[p/64]&(1<<(uint(p)%64)) != 0
}

// Kind decodes the kind tag.
func (v WireView) Kind() Kind {
	var r Reader
	v.payloadReader(&r, 0)
	r.off = int(v.off) // include the tag
	return Kind(r.ReadUint(KindBits))
}

// payloadReader points r at the payload (after the kind tag).
func (v WireView) payloadReader(r *Reader, n int) {
	*r = Reader{N: n, words: v.words, off: int(v.off) + KindBits, end: int(v.off) + int(v.bits)}
}

// word returns the whole encoded message — kind tag in the low KindBits,
// payload above it — as one value. Only valid when Len() <= 64; the decode
// fast path checks that before calling.
func (v WireView) word() uint64 {
	sh := uint(v.off)
	w := v.words[0] >> sh
	if int(v.off)+int(v.bits) > 64 {
		w |= v.words[1] << (64 - sh)
	}
	if v.bits < 64 {
		w &= 1<<uint(v.bits) - 1
	}
	return w
}

// BitsForID returns the number of bits needed to name one of n values:
// 0 when there is at most one value (nothing to distinguish), otherwise
// ceil(log2 n).
func BitsForID(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// RawMessage is an opaque payload of a declared width: Width zero bits
// followed by nothing the receiver interprets. It exists for capacity
// probes and engine tests (bandwidth violations with real encoded sizes)
// and is the one shipped kind whose size is an input, not a function of n.
type RawMessage struct {
	Width int
}

// WireKind implements WireMessage.
func (m *RawMessage) WireKind() Kind { return KindRaw }

// MarshalWire implements WireMessage.
func (m *RawMessage) MarshalWire(w *Writer) {
	for left := m.Width; left > 0; left -= 64 {
		chunk := left
		if chunk > 64 {
			chunk = 64
		}
		w.WriteUint(0, chunk)
	}
}

// UnmarshalWire implements WireMessage.
func (m *RawMessage) UnmarshalWire(r *Reader) {
	m.Width = r.Remaining()
	for left := m.Width; left > 0; left -= 64 {
		chunk := left
		if chunk > 64 {
			chunk = 64
		}
		r.ReadUint(chunk)
	}
}

// DeclaredBits implements BitsDeclarer.
func (m *RawMessage) DeclaredBits(n int) int { return KindBits + m.Width }

func init() {
	RegisterKind(KindRaw, "raw", func() WireMessage { return new(RawMessage) })
}
