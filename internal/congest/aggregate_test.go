package congest

import (
	"slices"
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
	var msgs []WireMessage
	for _, k := range aggKinds {
		msgs = append(msgs, &msgAgg{Value: sent[k], Witness: 3, Bound: bound, kind: k})
	}
	inbox, env := inboxOf(t, n, 3, msgs...)
	for _, k := range aggKinds {
		c := NewConvergecastNode(k, -1, []int{1, 2, 3}, own, 0, bound)
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

// TestSlotConvergecastKinds hands a src-max node and a skeleton relay node
// one message of each slot kind, plus a src-max message whose source rank
// is a valid id but no slot of the node. Each node must combine only its
// own kinds — max for src-max, min for skel-up, overwrite for skel-down —
// and ignore the out-of-range slot instead of indexing past its vector.
func TestSlotConvergecastKinds(t *testing.T) {
	const n, slots, bound = 8, 2, 20
	inbox, env := inboxOf(t, n, 1,
		&msgSlot{kind: KindSrcMax, Slot: 1, Val: 9},
		&msgSlot{kind: KindSrcMax, Slot: n - 1, Val: 9},
		&msgSlot{kind: KindSkelUp, Slot: 0, Val: 3, Slots: slots, Bound: bound},
		&msgSlot{kind: KindSkelDown, Slot: 1, Val: 4, Slots: slots, Bound: bound})
	info := &PreInfo{Parent: []int{-1, 0}, Depth: []int{0, 1}, Children: [][]int{{1}, nil}, D: 1}
	for _, c := range []struct {
		node *SlotConvergecastNode
		want []int
	}{
		{NewSlotConvergecastNode(info, 0, KindSrcMax, kindInvalid, slots, 0, -1, []int{5, -1}), []int{5, 9}},
		{NewSlotConvergecastNode(info, 0, KindSkelUp, KindSkelDown, slots, bound, 0, nil), []int{3, 4}},
	} {
		c.node.Receive(env.bind(0, []int{1}, 1), inbox)
		if !slices.Equal(c.node.Vec, c.want) {
			t.Errorf("%v node: Vec %v, want %v", c.node.up, c.node.Vec, c.want)
		}
	}
}
