package comm

import (
	"math"
	"math/rand"
	"testing"

	"qcongest/internal/bitstring"
)

func TestClassicalDisj(t *testing.T) {
	x, _ := bitstring.FromString("10110")
	y, _ := bitstring.FromString("01001")
	r, m, err := ClassicalDisj(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Errorf("DISJ = %d, want 1", r)
	}
	if m.Messages != 2 || m.Qubits != 6 {
		t.Errorf("metrics = %+v", m)
	}
	y2, _ := bitstring.FromString("00110")
	r, _, err = ClassicalDisj(x, y2)
	if err != nil || r != 0 {
		t.Errorf("DISJ = %d,%v want 0,nil", r, err)
	}
	if _, _, err := ClassicalDisj(x, bitstring.New(3)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := ClassicalDisj(x, nil); err == nil {
		t.Error("nil input accepted")
	}
}

func TestGroverDisjCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k = 128
	correct := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		var x, y *bitstring.Bits
		var want int
		if i%2 == 0 {
			x, y = bitstring.RandomIntersectingPair(k, rng)
			want = 0
		} else {
			x, y = bitstring.RandomDisjointPair(k, rng)
			want = 1
		}
		res, err := BlockedGroverDisj(x, y, x.Len(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Disj == want {
			correct++
		}
		if want == 1 && res.Disj != 1 {
			t.Error("false intersection on disjoint inputs (one-sided error violated)")
		}
		if res.Disj == 0 {
			if res.Witness < 0 || !x.Get(res.Witness) || !y.Get(res.Witness) {
				t.Errorf("bad witness %d", res.Witness)
			}
		}
	}
	if correct < trials*9/10 {
		t.Errorf("correct %d/%d", correct, trials)
	}
}

func TestGroverDisjEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res, err := BlockedGroverDisj(bitstring.New(0), bitstring.New(0), 4, rng)
	if err != nil || res.Disj != 1 {
		t.Errorf("empty inputs: %+v, %v", res, err)
	}
	x, _ := bitstring.FromString("1")
	y, _ := bitstring.FromString("1")
	res, err = BlockedGroverDisj(x, y, 5, rng)
	if err != nil || res.Disj != 0 || res.Witness != 0 {
		t.Errorf("k=1 intersecting: %+v, %v", res, err)
	}
	if _, err := BlockedGroverDisj(x, bitstring.New(2), 1, rng); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := BlockedGroverDisj(nil, y, 1, rng); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := BlockedGroverDisj(x, y, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// With one block per index (the Õ(sqrt(k)) protocol) communication scales
// ~sqrt(k) log k, far below the classical k.
func TestSqrtProtocolCommunication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	avgQubits := func(k int) float64 {
		total := 0
		const trials = 20
		for i := 0; i < trials; i++ {
			x, y := bitstring.RandomIntersectingPair(k, rng)
			res, err := BlockedGroverDisj(x, y, x.Len(), rng)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Metrics.Qubits
		}
		return float64(total) / trials
	}
	q64, q1024 := avgQubits(64), avgQubits(1024)
	// sqrt scaling with log factors: ratio should be ~ 4*log ratio ~ 7,
	// far below the classical ratio 16.
	if r := q1024 / q64; r > 12 {
		t.Errorf("communication ratio %g suggests super-sqrt scaling", r)
	}
}

// Reproduces the Theorem 5 tradeoff shape: communication follows a U-shaped
// curve in the message budget r — the k/r regime at small r, a minimum near
// r = sqrt(k), and the +r regime beyond it.
func TestTradeoffShape(t *testing.T) {
	const k = 4096
	points, err := MeasureTradeoff(k, []int{8, 16, 32, 64, 256}, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	byBudget := map[int]TradeoffPoint{}
	for _, p := range points {
		byBudget[p.MessageBudget] = p
	}
	// k/r regime: going from 8 to 16 messages should cut communication
	// substantially (measured ~2.1x; require >= 1.5x), and 8 -> 32 more so.
	if a, b := byBudget[8].Qubits, byBudget[16].Qubits; float64(a) < 1.5*float64(b) {
		t.Errorf("no k/r regime: qubits(8)=%d qubits(16)=%d", a, b)
	}
	if a, b := byBudget[8].Qubits, byBudget[32].Qubits; float64(a) < 2*float64(b) {
		t.Errorf("no k/r regime: qubits(8)=%d qubits(32)=%d", a, b)
	}
	// The minimum sits near r = sqrt(k) = 64: both ends of the sweep cost
	// more than the middle (the U shape).
	mid := byBudget[64].Qubits
	if byBudget[8].Qubits <= mid || byBudget[256].Qubits <= mid {
		t.Errorf("no U shape: %d / %d / %d", byBudget[8].Qubits, mid, byBudget[256].Qubits)
	}
	// And the optimum is within a moderate factor of the sqrt(k) log k floor.
	floor := math.Sqrt(k) * math.Log2(k)
	if float64(mid) > 10*floor {
		t.Errorf("optimum %d too far above sqrt-k floor %g", mid, floor)
	}
	if _, err := MeasureTradeoff(2, []int{4}, 1, 1); err == nil {
		t.Error("tiny k accepted")
	}
	for _, trials := range []int{0, -1} {
		if _, err := MeasureTradeoff(k, []int{8}, trials, 1); err == nil {
			t.Errorf("trials %d accepted", trials)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	var m Metrics
	m.send(5, 1)
	m.send(3, 2)
	m.send(9, 0) // no message, so no maximum either
	if m.Messages != 3 || m.Qubits != 11 || m.MaxQubits != 5 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestBlockedGroverDisjPinned pins the protocol's full result for fixed
// inputs and seeds: a change to the amplification loop, its RNG draws or
// the message accounting shows here. The cases cover a k=1 input, one
// block per index, a single block found by its first measurement (no
// Grover iteration, so MaxQubits is a verification message), more blocks
// requested than indices, and disjoint inputs that exhaust the budget.
func TestBlockedGroverDisjPinned(t *testing.T) {
	for _, tc := range []struct {
		k, blocks int
		seed      int64
		disjoint  bool
		disj, wit int
		m         Metrics
	}{
		{1, 1, 1, false, 0, 0, Metrics{4, 10, 3}},
		{16, 16, 2, false, 0, 3, Metrics{6, 32, 6}},
		{64, 8, 3, true, 1, -1, Metrics{84, 924, 12}},
		{100, 100, 4, false, 0, 75, Metrics{4, 34, 9}},
		{257, 30, 5, false, 0, 159, Metrics{20, 264, 15}},
		{128, 300, 6, true, 1, -1, Metrics{194, 1710, 9}},
		{40, 1, 7, false, 0, 20, Metrics{2, 48, 41}},
		{200, 64, 8, true, 1, -1, Metrics{156, 1662, 11}},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		pair := bitstring.RandomIntersectingPair
		if tc.disjoint {
			pair = bitstring.RandomDisjointPair
		}
		x, y := pair(tc.k, rng)
		res, err := BlockedGroverDisj(x, y, tc.blocks, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := GroverDisjResult{Disj: tc.disj, Witness: tc.wit, Metrics: tc.m}
		if res != want {
			t.Errorf("k=%d blocks=%d seed=%d: %+v, want %+v", tc.k, tc.blocks, tc.seed, res, want)
		}
	}
}
