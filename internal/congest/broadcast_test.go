package congest

// Tests for Broadcast's neighbor-row fast path and its slice-identity rule:
// the sender's own neighbor row and any prefix subslice of it
// (env.Neighbors[:j]) skip the per-copy adjacency probe; everything else —
// content-equal copies, non-prefix subslices — runs through the validated
// path and must stage the identical messages (or fail on a non-neighbor).

import (
	"fmt"
	"testing"

	"qcongest/internal/graph"
)

func TestBroadcastNeighborRowPrefix(t *testing.T) {
	g := graph.RandomConnected(24, 0.2, 11)
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetworkOn(topo, func(v int) Node { return NewWaveNode(false, 0, 1) }, WithStrictAccounting())
	tx := &msgWave{Tau: 2, Delta: 7}

	sender := 0
	row := topo.Neighbors(sender)
	if len(row) < 2 {
		t.Fatalf("vertex %d needs >= 2 neighbors for the prefix cases, has %d", sender, len(row))
	}

	// stage runs one round of sender staging through targets and returns
	// the staged inboxes per destination plus the outbox accounting.
	stage := func(targets []int, viaPut bool) (map[int][]Inbound, *Outbox) {
		ob := newOutbox(nw)
		ob.beginRound(1)
		ob.begin(sender)
		if viaPut {
			for _, to := range targets {
				ob.Put(to, tx)
			}
		} else {
			ob.Broadcast(targets, tx)
		}
		got := map[int][]Inbound{}
		for v := 0; v < topo.N(); v++ {
			if in := ob.appendChain(v, nil); len(in) > 0 {
				got[v] = in
			}
		}
		return got, ob
	}

	wantFull, obWant := stage(row, true) // Put loop: the validated oracle
	if obWant.err != nil {
		t.Fatal(obWant.err)
	}

	for _, tc := range []struct {
		name    string
		targets []int
	}{
		{"full row", row},
		{"prefix row[:1]", row[:1]},
		{"prefix row[:len-1]", row[:len(row)-1]},
		{"non-prefix row[1:]", row[1:]},
		{"content-equal copy", append([]int(nil), row...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ob := stage(tc.targets, false)
			if ob.err != nil {
				t.Fatal(ob.err)
			}
			want, obW := stage(tc.targets, true)
			if obW.err != nil {
				t.Fatal(obW.err)
			}
			if len(got) != len(tc.targets) {
				t.Fatalf("staged to %d destinations, want %d", len(got), len(tc.targets))
			}
			if !inboundMapsEqual(got, ob, want, obW) {
				t.Errorf("Broadcast(%v) staging differs from the Put-per-target oracle", tc.targets)
			}
			if ob.sent() != obW.sent() || ob.bitsTotal != obW.bitsTotal || ob.maxEdge != obW.maxEdge {
				t.Errorf("accounting (%d msgs, %d bits, maxEdge %d) differs from oracle (%d, %d, %d)",
					ob.sent(), ob.bitsTotal, ob.maxEdge, obW.sent(), obW.bitsTotal, obW.maxEdge)
			}
		})
	}

	// The full-row broadcast must stage exactly the oracle's full staging.
	gotFull, ob := stage(row, false)
	if ob.err != nil {
		t.Fatal(ob.err)
	}
	if !inboundMapsEqual(gotFull, ob, wantFull, obWant) {
		t.Error("full-row Broadcast differs from the Put-per-target oracle")
	}

	// Slice identity, not content: a copied slice containing a non-neighbor
	// must take the validated path and fail — the fast path never runs for
	// caller-built slices, even ones that start neighbor-equal.
	nonNeighbor := -1
	for v := 0; v < topo.N(); v++ {
		if v != sender && !topo.HasEdge(sender, v) {
			nonNeighbor = v
			break
		}
	}
	if nonNeighbor < 0 {
		t.Fatal("graph too dense: no non-neighbor available")
	}
	bad := append(append([]int(nil), row...), nonNeighbor)
	_, obBad := stage(bad, false)
	if obBad.err == nil {
		t.Fatalf("Broadcast to copied slice containing non-neighbor %d did not fail", nonNeighbor)
	}
}

// inboundMapsEqual compares staged inboxes, a of outbox ao and b of bo, by
// delivered content (sender, kind, bits and the encoded wire bits), not by
// arena positions.
func inboundMapsEqual(a map[int][]Inbound, ao *Outbox, b map[int][]Inbound, bo *Outbox) bool {
	aw, bw := ao.arena.written(), bo.arena.written()
	if len(a) != len(b) {
		return false
	}
	for v, as := range a {
		bs, ok := b[v]
		if !ok || len(as) != len(bs) {
			return false
		}
		for i := range as {
			x, y := as[i], bs[i]
			if x.From != y.From || x.Kind != y.Kind || x.Bits != y.Bits {
				return false
			}
			xw, yw := wireOf(aw, x), wireOf(bw, y)
			for j := 0; j < xw.Len(); j++ {
				if xw.Bit(j) != yw.Bit(j) {
					return false
				}
			}
		}
	}
	return true
}

// mixedPathNode charges one edge through every staging path in one round:
// in round 1 the star center sends to the leaf at row position pos through
// Put, Broadcast(env.Neighbors), the prefix env.Neighbors[:pos+1] and a
// caller-built children slice, in an order rotated by rot, so each path in
// turn carries the copy that decides the edge total. In round 2 the leaf
// stray (when >= 0) Puts to another leaf, which is not its neighbor.
type mixedPathNode struct {
	pos, rot, stray int
	done            bool
	tx              RawMessage
}

func (m *mixedPathNode) Send(env *Env, out *Outbox) {
	switch {
	case env.Round == 1 && env.ID == 0:
		row := env.Neighbors
		to := row[m.pos]
		for i := 0; i < 4; i++ {
			switch (i + m.rot) % 4 {
			case 0:
				out.Put(to, &m.tx)
			case 1:
				out.Broadcast(row, &m.tx)
			case 2:
				out.Broadcast(row[:m.pos+1], &m.tx)
			case 3:
				out.Broadcast([]int{to}, &m.tx)
			}
		}
	case env.Round == 2 && env.ID == m.stray:
		out.Put(m.stray+1, &m.tx)
	}
}

func (m *mixedPathNode) Receive(env *Env, inbox []Inbound) { m.done = env.Round >= 2 }
func (m *mixedPathNode) Done() bool                        { return m.done }

// TestBandwidthLedgerMixedPaths pins the per-edge ledger across its
// staging paths: one edge charged through Put, the full-row and prefix
// Broadcast fast paths and the validated children path must total exactly
// the budget (accepted) or one bit over it (rejected at the copy that
// crosses it), at the first, a middle and the last ledger slot of a star
// center — the vertex of maximum degree — and a Put to a non-neighbor must
// fail the same way. Error texts and MaxEdgeBits match RunReference.
func TestBandwidthLedgerMixedPaths(t *testing.T) {
	const leaves = 4600
	topo, err := NewTopology(graph.Star(leaves + 1))
	if err != nil {
		t.Fatal(err)
	}
	if topo.maxDeg != leaves {
		t.Fatalf("maxDeg = %d, want %d", topo.maxDeg, leaves)
	}
	const width = 11
	perCopy := KindBits + width
	budget := 4 * perCopy
	for _, pos := range []int{0, 4300, leaves - 1} {
		to := pos + 1 // leaf ids follow the center's row order
		for _, tc := range []struct {
			name      string
			bandwidth int
			stray     int
			wantErr   string
			wantEdge  int
		}{
			{"exact", budget, -1, "", budget},
			{"over", budget - 1, -1,
				fmt.Sprintf("congest: round 1: edge 0->%d exceeds bandwidth (%d > %d bits)", to, budget, budget-1), 0},
			{"non-neighbor", budget, 4200,
				"congest: round 2: node 4200 sent to non-neighbor 4201", budget},
		} {
			for rot := 0; rot < 4; rot++ {
				name := fmt.Sprintf("pos%d/%s/rot%d", pos, tc.name, rot)
				run := func(reference bool) (string, int) {
					nw := NewNetworkOn(topo, func(v int) Node {
						return &mixedPathNode{pos: pos, rot: rot, stray: tc.stray, tx: RawMessage{Width: width}}
					}, WithBandwidth(tc.bandwidth))
					run := nw.Run
					if reference {
						run = nw.RunReference
					}
					msg := ""
					if err := run(8); err != nil {
						msg = err.Error()
					}
					return msg, nw.Metrics().MaxEdgeBits
				}
				refErr, refEdge := run(true)
				if refErr != tc.wantErr || refEdge != tc.wantEdge {
					t.Fatalf("%s: RunReference = (%q, MaxEdgeBits %d), want (%q, %d)",
						name, refErr, refEdge, tc.wantErr, tc.wantEdge)
				}
				if gotErr, gotEdge := run(false); gotErr != refErr || gotEdge != refEdge {
					t.Errorf("%s: Run = (%q, MaxEdgeBits %d), want (%q, %d)",
						name, gotErr, gotEdge, refErr, refEdge)
				}
			}
		}
	}
}
