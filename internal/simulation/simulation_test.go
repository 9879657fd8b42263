package simulation

import (
	"testing"
	"testing/quick"
)

func xorFn(x, y uint64) uint64 { return x ^ y }

func TestRelayNativeComputes(t *testing.T) {
	for _, d := range []int{1, 2, 3, 7, 12} {
		alg := NewRelayAlgorithm(d, xorFn)
		st, err := alg.RunNative(0xAB, 0xCD)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		out, ok := AliceOutput(st)
		if !ok {
			t.Fatalf("d=%d: Alice did not receive the result", d)
		}
		if out != 0xAB^0xCD {
			t.Errorf("d=%d: output %#x, want %#x", d, out, 0xAB^0xCD)
		}
	}
}

// Theorem 11's core claim, verified rather than assumed: the two-party
// simulation reproduces the native execution exactly — every register of
// the final state matches.
func TestTwoPartyMatchesNative(t *testing.T) {
	for _, d := range []int{1, 2, 5, 9} {
		alg := NewRelayAlgorithm(d, xorFn)
		native, err := alg.RunNative(0x1234, 0x0F0F)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := alg.RunTwoParty(0x1234, 0x0F0F)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for i := range native.R {
			if sim.State.R[i] != native.R[i] {
				t.Errorf("d=%d: R[%d] = %#x, want %#x", d, i, sim.State.R[i], native.R[i])
			}
		}
		for j := range native.T {
			if sim.State.T[j] != native.T[j] {
				t.Errorf("d=%d: T[%d] = %#x, want %#x", d, j, sim.State.T[j], native.T[j])
			}
		}
		out, ok := AliceOutput(sim.State)
		if !ok || out != 0x1234^0x0F0F {
			t.Errorf("d=%d: simulated output %#x ok=%v", d, out, ok)
		}
	}
}

// Property: equivalence holds for arbitrary inputs.
func TestTwoPartyEquivalenceProperty(t *testing.T) {
	f := func(x, y uint16, dRaw uint8) bool {
		d := int(dRaw)%10 + 1
		alg := NewRelayAlgorithm(d, func(a, b uint64) uint64 { return a + b })
		native, err := alg.RunNative(uint64(x), uint64(y))
		if err != nil {
			return false
		}
		sim, err := alg.RunTwoParty(uint64(x), uint64(y))
		if err != nil {
			return false
		}
		for i := range native.R {
			if sim.State.R[i] != native.R[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Theorem 11 cost accounting: the simulation uses O(r/d) messages, each of
// at most (d+1)*bw + d*s qubits, for O(r(bw+s)) total communication.
func TestMessageScaling(t *testing.T) {
	for _, d := range []int{2, 4, 8, 16} {
		alg := NewRelayAlgorithm(d, xorFn)
		sim, err := alg.RunTwoParty(7, 9)
		if err != nil {
			t.Fatal(err)
		}
		r := alg.Rounds
		maxMessages := 2*(r/d) + 6
		if sim.Metrics.Messages > maxMessages {
			t.Errorf("d=%d r=%d: %d messages, want <= %d", d, r, sim.Metrics.Messages, maxMessages)
		}
		maxPerMsg := (d+1)*alg.Bandwidth + d*alg.Memory
		if sim.Metrics.MaxQubits > maxPerMsg {
			t.Errorf("d=%d: message of %d qubits, want <= %d", d, sim.Metrics.MaxQubits, maxPerMsg)
		}
		maxTotal := (sim.Metrics.Messages + 1) * maxPerMsg
		if sim.Metrics.Qubits > maxTotal {
			t.Errorf("d=%d: total %d qubits, want <= %d", d, sim.Metrics.Qubits, maxTotal)
		}
	}
}

// Message count decreases as d grows for fixed r: the r/d factor at work.
func TestMessagesShrinkWithD(t *testing.T) {
	const rounds = 96
	msgs := func(d int) int {
		alg := NewRelayAlgorithm(d, xorFn)
		alg.Rounds = rounds // fix r across d values
		sim, err := alg.RunTwoParty(3, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Metrics.Messages
	}
	m2, m16 := msgs(2), msgs(16)
	if m16 >= m2 {
		t.Errorf("messages did not shrink: d=2 -> %d, d=16 -> %d", m2, m16)
	}
	if m16 > 2*(rounds/16)+6 {
		t.Errorf("d=16: %d messages", m16)
	}
}

// The communication accounting is the transcript encoding: every shipped
// register is encoded at its declared width and Qubits is exactly the
// transcript length.
func TestTranscriptIsTheAccounting(t *testing.T) {
	for _, d := range []int{1, 3, 8} {
		alg := NewRelayAlgorithm(d, xorFn)
		sim, err := alg.RunTwoParty(0xBEEF, 0xCAFE)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Transcript.Len() != sim.Metrics.Qubits {
			t.Errorf("d=%d: transcript %d bits, Qubits %d", d, sim.Transcript.Len(), sim.Metrics.Qubits)
		}
	}
}

// A register whose value exceeds its declared width cannot be shipped: the
// simulation fails instead of silently undercounting the communication.
func TestRegisterWidthIsVerified(t *testing.T) {
	alg := NewRelayAlgorithm(3, xorFn)
	alg.Bandwidth = 4 // too narrow for the 24-bit relay values
	if _, err := alg.RunTwoParty(0xAB, 0xCD); err == nil {
		t.Error("over-width register accepted")
	}
}

func TestValidate(t *testing.T) {
	alg := NewRelayAlgorithm(3, xorFn)
	bad := *alg
	bad.D = 0
	if err := bad.Validate(); err == nil {
		t.Error("d=0 accepted")
	}
	bad = *alg
	bad.Rounds = 0
	if err := bad.Validate(); err == nil {
		t.Error("rounds=0 accepted")
	}
	bad = *alg
	bad.Step = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil step accepted")
	}
	bad = *alg
	bad.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("bw=0 accepted")
	}
}

// AliceOutput extracts Alice's captured result from a final state, and
// whether it was captured at all.
func AliceOutput(st State) (uint64, bool) {
	if st.R[0]&relayDoneBit == 0 {
		return 0, false
	}
	return (st.R[0] >> 32) & relayValueMask, true
}
