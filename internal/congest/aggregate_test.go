package congest

import (
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// aggKinds are the four wire kinds ConvergecastNode runs on.
var aggKinds = []Kind{KindMax, KindWMax, KindSum, KindCutSum}

// TestConvergecastCountsOnlyItsKind hands a ConvergecastNode of each
// aggregate kind one message of every aggregate kind: the four kinds share
// one message struct, so a node must decode and count only its own kind's
// report, combined by its own aggregate (max for max/wmax, sum for
// sum/cutsum).
func TestConvergecastCountsOnlyItsKind(t *testing.T) {
	const n, bound, own = 8, 20, 4
	sent := map[Kind]int{KindMax: 5, KindWMax: 6, KindSum: 7, KindCutSum: 9}
	var w Writer
	w.Reset(n)
	var inbox []Inbound
	for _, k := range aggKinds {
		off := w.Len()
		w.WriteUint(uint64(k), KindBits)
		(&msgAgg{Value: sent[k], Witness: 3, Bound: bound, kind: k}).MarshalWire(&w)
		if w.Err() != nil {
			t.Fatalf("%v: %v", k, w.Err())
		}
		inbox = append(inbox, Inbound{From: 3, Kind: k, Bits: w.Len() - off, wire: w.view(off, w.Len()-off)})
	}
	for _, k := range aggKinds {
		c := NewConvergecastNode(k, -1, []int{1, 2, 3}, own, 0, bound)
		env := newEnv(n)
		c.Receive(env.bind(0, []int{1, 2, 3}, 1), inbox)
		want, wantWitness := max(own, sent[k]), 3
		if k == KindSum || k == KindCutSum {
			want, wantWitness = own+sent[k], 0
		}
		if c.received != 1 || c.Agg != want || c.AggWitness != wantWitness {
			t.Errorf("%v node: received %d, aggregate %d/%d; want 1, %d/%d",
				k, c.received, c.Agg, c.AggWitness, want, wantWitness)
		}
		if c.NextWake(&env, 1) != NeverWake {
			t.Errorf("%v node woke with 1 of 3 children reported", k)
		}
	}
}

// A ConvergecastNode built with a non-aggregate kind has no field list: its
// report fails to encode and the run fails instead of sending a payload the
// kind's own program would misread.
func TestConvergecastOtherKindFails(t *testing.T) {
	nw, err := NewNetwork(graph.Path(2), func(v int) Node {
		parent, children := -1, []int{1} // vertex 0 is the root
		if v == 1 {
			parent, children = 0, nil
		}
		return NewConvergecastNode(KindWave, parent, children, 0, v, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Run(8); err == nil || !strings.Contains(err.Error(), "out of id range [0,0)") {
		t.Fatalf("convergecast of kind wave: Run error %v, want the encoding error", err)
	}
}
