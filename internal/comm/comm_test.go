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
}

func TestMetricsAccounting(t *testing.T) {
	var m Metrics
	m.send(5)
	m.send(3)
	if m.Messages != 2 || m.Qubits != 8 || m.MaxQubits != 5 {
		t.Errorf("metrics = %+v", m)
	}
}
