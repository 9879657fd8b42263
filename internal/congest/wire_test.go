package congest

import (
	"reflect"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

func TestBitsForID(t *testing.T) {
	// Naming one of n <= 1 values takes no bits: there is nothing to
	// distinguish.
	cases := []struct{ n, want int }{
		{-1, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BitsForID(c.n); got != c.want {
			t.Errorf("BitsForID(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.Reset(100)
	// Widths chosen to straddle word boundaries repeatedly.
	fields := []struct {
		v     uint64
		width int
	}{
		{1, 1}, {0, 1}, {0x7fff, 15}, {3, 2}, {1<<50 - 7, 50},
		{0, 0}, {12345, 17}, {1<<64 - 1, 64}, {9, 5}, {1<<33 + 1, 40},
	}
	total := 0
	for _, f := range fields {
		w.WriteUint(f.v, f.width)
		total += f.width
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if w.Len() != total {
		t.Fatalf("Len = %d, want %d", w.Len(), total)
	}
	r := Reader{N: 100, words: w.words, off: 0, end: w.Len()}
	for i, f := range fields {
		if got := r.ReadUint(f.width); got != f.v {
			t.Errorf("field %d: read %d, want %d", i, got, f.v)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bits left over", r.Remaining())
	}
	// Reading past the end is an error, not garbage.
	r.ReadUint(1)
	if r.Err() == nil {
		t.Error("read past end accepted")
	}
}

func TestWriterRejectsOverflow(t *testing.T) {
	var w Writer
	w.Reset(10)
	w.WriteUint(4, 2) // 4 needs 3 bits
	if w.Err() == nil {
		t.Error("overflowing value accepted")
	}
	w.Reset(10)
	w.WriteID(-1, 10)
	if w.Err() == nil {
		t.Error("negative id accepted")
	}
	w.Reset(10)
	w.WriteID(10, 10)
	if w.Err() == nil {
		t.Error("id == bound accepted")
	}
	w.Reset(10)
	w.WriteCount(-3, 8)
	if w.Err() == nil || !strings.Contains(w.Err().Error(), "negative value -3") {
		t.Errorf("negative counter: err = %v, want explicit negative-value error", w.Err())
	}
}

// A codec pair whose UnmarshalWire reads fewer bits than MarshalWire wrote
// must fail Decode: truncated decodes may not pass silently.
type shortReadMsg struct{ V int }

const kindTestShort Kind = 29

func (m *shortReadMsg) WireKind() Kind          { return kindTestShort }
func (m *shortReadMsg) MarshalWire(w *Writer)   { w.WriteUint(uint64(m.V), 8) }
func (m *shortReadMsg) UnmarshalWire(r *Reader) { m.V = int(r.ReadUint(4)) } // deliberate under-read

func init() {
	RegisterKind(kindTestShort, "test-short", func() WireMessage { return new(shortReadMsg) })
}

func TestDecodeRejectsUnconsumedPayload(t *testing.T) {
	const n = 16
	var w Writer
	w.Reset(n)
	w.WriteUint(uint64(kindTestShort), KindBits)
	(&shortReadMsg{V: 0xAB}).MarshalWire(&w)
	in := Inbound{From: 0, Kind: kindTestShort, Bits: w.Len(), wire: w.view(0, w.Len())}
	env := Env{N: n, rd: Reader{N: n}}
	var got shortReadMsg
	err := in.Decode(&env, &got)
	if err == nil || !strings.Contains(err.Error(), "4 of 8 payload bits unread") {
		t.Errorf("under-reading decode: err = %v, want unread-payload error", err)
	}
}

func TestWriterRecyclesCleanly(t *testing.T) {
	var w Writer
	w.Reset(10)
	w.WriteUint(1<<63, 64)
	w.WriteUint(1<<40-1, 41)
	w.Reset(10)
	w.WriteUint(0, 64)
	w.WriteUint(0, 41)
	r := Reader{N: 10, words: w.words, off: 0, end: w.Len()}
	if got := r.ReadUint(64); got != 0 {
		t.Errorf("stale bits after Reset: %x", got)
	}
	if got := r.ReadUint(41); got != 0 {
		t.Errorf("stale bits after Reset: %x", got)
	}
}

// Every registered kind round-trips through the wire format, and its
// encoded length matches its declared width (derived from the field list
// for built-in kinds, DeclaredBits for raw).
func TestWireRoundTripAllKinds(t *testing.T) {
	const n = 100
	samples := []WireMessage{
		&msgActivate{Dist: 57},
		&msgChild{},
		&msgEccReport{Max: 99},
		&msgToken{Step: 397},
		&msgWave{Tau: 313, Delta: 99},
		&msgAgg{kind: KindMax, Value: 217, Witness: 3},
		&msgBcast{Value: 400},
		&msgNear{Dist: 150, Src: 9},
		&msgAgg{kind: KindSum, Value: 4095},
		&msgPair{Src: 42, Dist: 150},
		&msgSlot{kind: KindSrcMax, Slot: 42, Val: 150},
		&RawMessage{Width: 17},
		&msgWDist{Dist: 300, Bound: 450},
		&msgAgg{kind: KindWMax, Value: 301, Witness: 42, Bound: 450},
		&msgAdj{ID: 42},
		&msgSide{Marked: 1},
		&msgAgg{kind: KindCutSum, Value: 512, Bound: 600},
		&msgSlot{kind: KindSkelUp, Slot: 7, Val: 451, Slots: 20, Bound: 450},
		&msgSlot{kind: KindSkelDown, Slot: 19, Val: 0, Slots: 20, Bound: 450},
	}
	covered := map[Kind]bool{}
	var w Writer
	for _, m := range samples {
		k := m.WireKind()
		covered[k] = true
		if !Registered(k) {
			t.Fatalf("kind %v not registered", k)
		}
		w.Reset(n)
		w.WriteUint(uint64(k), KindBits)
		m.MarshalWire(&w)
		if w.Err() != nil {
			t.Fatalf("%v: %v", k, w.Err())
		}
		bits := w.Len()
		want := -1
		switch d := m.(type) {
		case fieldMessage:
			_, width, _ := d.fields(n).pack()
			want = KindBits + width
		case BitsDeclarer:
			want = d.DeclaredBits(n)
		default:
			t.Errorf("%v: shipped kind has neither a field list nor DeclaredBits", k)
		}
		if want != bits {
			t.Errorf("%v: declared %d bits, encoded %d", k, want, bits)
		}
		view := w.view(0, bits)
		if view.Kind() != k {
			t.Errorf("%v: view decodes tag %v", k, view.Kind())
		}
		got := NewKindMessage(k)
		// Bound-parameterized kinds (the weighted suite): the decoder is
		// configured with the same bound as the encoder — in the programs it
		// is per-node configuration known a priori, like n.
		switch s := m.(type) {
		case *msgWDist:
			got.(*msgWDist).Bound = s.Bound
		case *msgAgg:
			got.(*msgAgg).Bound = s.Bound
		case *msgSlot:
			got.(*msgSlot).Slots = s.Slots
			got.(*msgSlot).Bound = s.Bound
		}
		var r Reader
		view.payloadReader(&r, n)
		got.UnmarshalWire(&r)
		if r.Err() != nil {
			t.Fatalf("%v: %v", k, r.Err())
		}
		if r.Remaining() != 0 {
			t.Errorf("%v: %d undecoded bits", k, r.Remaining())
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: round trip %+v, want %+v", k, got, m)
		}
	}
	for _, k := range RegisteredKinds() {
		if !covered[k] && !strings.HasPrefix(k.String(), "test-") {
			t.Errorf("registered kind %v has no round-trip sample", k)
		}
	}
}

func TestKindRegistry(t *testing.T) {
	if Registered(kindInvalid) {
		t.Error("invalid kind registered")
	}
	if NewKindMessage(Kind(31)) != nil {
		t.Error("factory for unregistered kind")
	}
	if got := KindWave.String(); got != "wave" {
		t.Errorf("KindWave name %q", got)
	}
	if got := Kind(31).String(); got != "kind(31)" {
		t.Errorf("unregistered kind name %q", got)
	}
}

// The shipped algorithms run clean under strict accounting: every declared
// size formula matches the encoded wire length, on both engines.
func TestStrictAccountingShippedAlgorithms(t *testing.T) {
	g := graph.RandomConnected(48, 0.08, 11)
	if _, err := ClassicalExactDiameter(g, WithStrictAccounting()); err != nil {
		t.Errorf("exact diameter under strict accounting: %v", err)
	}
	if _, err := ClassicalApproxDiameter(g, 0, 7, WithStrictAccounting()); err != nil {
		t.Errorf("approx diameter under strict accounting: %v", err)
	}
	nw, err := NewNetwork(g, func(v int) Node { return NewLeaderElectNode() }, WithStrictAccounting())
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RunReference(4 * g.N()); err != nil {
		t.Errorf("reference engine under strict accounting: %v", err)
	}
}

// A message whose declared size formula disagrees with its encoding.
type lyingMsg struct{ V int }

const kindTestLying Kind = 30

func (m *lyingMsg) WireKind() Kind          { return kindTestLying }
func (m *lyingMsg) MarshalWire(w *Writer)   { w.WriteUint(uint64(m.V), 8) }
func (m *lyingMsg) UnmarshalWire(r *Reader) { m.V = int(r.ReadUint(8)) }
func (m *lyingMsg) DeclaredBits(n int) int  { return 3 } // deliberate lie

func init() {
	RegisterKind(kindTestLying, "test-lying", func() WireMessage { return new(lyingMsg) })
}

type lyingNode struct {
	id   int
	sent bool
	tx   lyingMsg
}

func (l *lyingNode) Send(env *Env, out *Outbox) {
	if l.sent || env.ID != 0 {
		return
	}
	l.sent = true
	l.tx.V = 200
	out.Put(env.Neighbors[0], &l.tx)
}
func (l *lyingNode) Receive(env *Env, inbox []Inbound) {}
func (l *lyingNode) Done() bool                        { return l.id != 0 || l.sent }

func TestStrictAccountingCatchesMismatch(t *testing.T) {
	g := graph.Path(3)
	make := func(v int) Node { return &lyingNode{id: v} }

	// Without strict accounting the run succeeds and the charged cost is
	// the encoded length — the lie is simply ignored.
	nw, err := NewNetwork(g, make)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4); err != nil {
		t.Fatal(err)
	}
	if want := KindBits + 8; nw.Metrics().Bits != want {
		t.Errorf("Bits = %d, want encoded length %d (declared value must not be trusted)",
			nw.Metrics().Bits, want)
	}

	// Strict accounting turns the mismatch into a run failure, identically
	// on both engines.
	nw, err = NewNetwork(g, make, WithStrictAccounting())
	if err != nil {
		t.Fatal(err)
	}
	err = nw.Run(4)
	if err == nil || !strings.Contains(err.Error(), "declares 3 bits but encodes to 13") {
		t.Errorf("err = %v, want declared/encoded mismatch", err)
	}
	nw, err = NewNetwork(g, make, WithStrictAccounting())
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.RunReference(4); err == nil {
		t.Error("reference engine missed the declared/encoded mismatch")
	}
}

// An unregistered kind must be refused: the registry is the wire contract.
type bogusMsg struct{}

func (bogusMsg) WireKind() Kind          { return Kind(31) }
func (bogusMsg) MarshalWire(w *Writer)   {}
func (bogusMsg) UnmarshalWire(r *Reader) {}

type bogusNode struct {
	id   int
	sent bool
}

func (b *bogusNode) Send(env *Env, out *Outbox) {
	if !b.sent && env.ID == 0 {
		b.sent = true
		out.Put(env.Neighbors[0], bogusMsg{})
	}
}
func (b *bogusNode) Receive(env *Env, inbox []Inbound) {}
func (b *bogusNode) Done() bool                        { return b.id != 0 || b.sent }

func TestEngineRejectsUnregisteredKind(t *testing.T) {
	g := graph.Path(2)
	nw, err := NewNetwork(g, func(v int) Node { return &bogusNode{id: v} })
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(4); err == nil || !strings.Contains(err.Error(), "unregistered kind") {
		t.Errorf("err = %v, want unregistered-kind error", err)
	}
}

// floodNode broadcasts one activate message to every neighbor each round
// for a fixed number of rounds, decoding everything it receives — a
// steady-state workload for the allocation test.
type floodNode struct {
	rounds int
	done   bool
	tx, rx msgActivate
}

func (f *floodNode) Send(env *Env, out *Outbox) {
	if env.Round > f.rounds {
		return
	}
	f.tx.Dist = env.ID
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *floodNode) Receive(env *Env, inbox []Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind == KindActivate {
			_ = in.Decode(env, &f.rx)
		}
	}
	if env.Round >= f.rounds {
		f.done = true
	}
}

func (f *floodNode) Done() bool { return f.done }

// The engine's per-round hot path — encode, validate, buffer, merge,
// decode — must not allocate once buffers reach steady state: the allocs
// of a run must not grow with the round count. Setup costs (NewNetwork,
// engine construction, warmup growth) are identical in both runs and
// cancel in the difference. Five warm-up runs precede each measurement, as
// in TestEvalSteadyStateAllocs: the runtime fills its type-assertion
// caches at random moments early in a process, and one warm-up run is not
// always enough to get past them.
func TestEngineSteadyStateAllocsZero(t *testing.T) {
	g := graph.Path(256)
	runAllocs := func(rounds int) float64 {
		run := func() {
			nw, err := NewNetwork(g, func(v int) Node { return &floodNode{rounds: rounds} })
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.Run(rounds + 4); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run()
		}
		return testing.AllocsPerRun(10, run)
	}
	base := runAllocs(16)
	long := runAllocs(116)
	if perRound := (long - base) / 100; perRound > 0 {
		t.Errorf("%.3f allocs per steady-state round (runs: %.0f vs %.0f), want 0", perRound, base, long)
	}
}

// NewKindMessage returns a zero message of the registered kind k, or nil.
func NewKindMessage(k Kind) WireMessage {
	if !Registered(k) {
		return nil
	}
	return kindRegistry[k].new()
}

// RegisteredKinds returns all registered kinds in ascending order.
func RegisteredKinds() []Kind {
	var out []Kind
	for k := 1; k < numKinds; k++ {
		if kindRegistry[k].name != "" {
			out = append(out, Kind(k))
		}
	}
	return out
}
