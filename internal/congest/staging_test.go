package congest

// Staging equivalence at the Outbox level. RunReference shares the Outbox
// with Run, so the scheduler-equivalence suite cannot see a staging bug:
// these tests hold every staging path to the plain Put. Broadcast must
// stage what a loop of Puts stages, for every kind of target list, and
// putAt(i, to) what Put(to) stages, for every position, good or bad.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qcongest/internal/graph"
)

// stagingTopologies are the shapes the staging tests run on: a random
// graph, a star (one vertex of maximum degree, every other of degree 1)
// and a path.
func stagingTopologies(t *testing.T) map[string]*Topology {
	t.Helper()
	out := map[string]*Topology{}
	for name, g := range map[string]*graph.Graph{
		"random": graph.RandomConnected(40, 0.15, 5),
		"star":   graph.Star(12),
		"path":   graph.Path(10),
	} {
		topo, err := NewTopology(g)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = topo
	}
	return out
}

// stagingNetworks returns a network on topo at the default bandwidth,
// which admits one wave message per edge and round, so that a second copy
// on an edge is a bandwidth error, and one whose bandwidth admits them all.
func stagingNetworks(topo *Topology) map[string]*Network {
	mk := func(opts ...Option) *Network {
		return NewNetworkOn(topo, func(v int) Node { return NewWaveNode(false, 0, 1) }, opts...)
	}
	return map[string]*Network{
		"default": mk(WithStrictAccounting()),
		"wide":    mk(WithStrictAccounting(), WithBandwidth(1<<16)),
	}
}

// checkOracleError fails unless the oracle's error is as the case
// expects: a "bad " case fails, and on the wide network nothing else does.
func checkOracleError(t *testing.T, name, bw string, err error) {
	t.Helper()
	bad := strings.HasPrefix(name, "bad ")
	if bad && err == nil || !bad && bw == "wide" && err != nil {
		t.Fatalf("the Put oracle's error is %v", err)
	}
}

// firstNonNeighbor returns the smallest vertex other than v that is not
// its neighbor, or n when v is adjacent to every other vertex.
func firstNonNeighbor(topo *Topology, v int) int {
	for w := 0; w < topo.N(); w++ {
		if w != v && !topo.HasEdge(v, w) {
			return w
		}
	}
	return topo.N()
}

// insertSorted returns a copy of the ascending list xs with x inserted in
// order.
func insertSorted(xs []int, x int) []int {
	i, _ := slices.BinarySearch(xs, x)
	return slices.Insert(slices.Clone(xs), i, x)
}

// stageSenders runs one round on a fresh Outbox of nw: every vertex, in
// ascending order, stages through stage until the first error.
func stageSenders(nw *Network, stage func(ob *Outbox, v int, row []int)) *Outbox {
	ob := newOutbox(nw)
	ob.beginRound(1)
	for v := 0; v < nw.topo.N() && ob.err == nil; v++ {
		ob.begin(v)
		stage(ob, v, nw.topo.Neighbors(v))
	}
	return ob
}

// compareStaging fails unless outboxes a and b staged the same round: the
// same error text, accounting, receiver order and, per receiver, the same
// chain of copies by content (sender, kind, bits and encoded bits).
func compareStaging(t *testing.T, a, b *Outbox) {
	t.Helper()
	if fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		t.Fatalf("error %v, want %v", a.err, b.err)
	}
	if a.sent() != b.sent() || a.bitsTotal != b.bitsTotal || a.maxEdge != b.maxEdge {
		t.Fatalf("accounting (%d copies, %d bits, max edge %d), want (%d, %d, %d)",
			a.sent(), a.bitsTotal, a.maxEdge, b.sent(), b.bitsTotal, b.maxEdge)
	}
	if !slices.Equal(a.touched, b.touched) {
		t.Fatalf("receivers in order %v, want %v", a.touched, b.touched)
	}
	ia, ib := map[int][]Inbound{}, map[int][]Inbound{}
	for v := 0; v < a.nw.topo.N(); v++ {
		if in := a.appendChain(v, nil); len(in) > 0 {
			ia[v] = in
		}
		if in := b.appendChain(v, nil); len(in) > 0 {
			ib[v] = in
		}
	}
	if !inboundMapsEqual(ia, a, ib, b) {
		t.Fatal("delivery chains differ")
	}
}

// TestBroadcastStagesLikePuts holds Broadcast to a loop of Puts, for each
// kind of target list: the sender's row and a copy of it, ascending
// subsets (a tree's children), a non-prefix subslice, unsorted and
// repeated targets, a non-neighbor, a vertex outside the graph, the sender
// itself and the empty list. The bad lists go to the middle sender, so the
// error comes after other senders staged. Each sender sends its own
// message, so a copy staged from the wrong sender shows.
func TestBroadcastStagesLikePuts(t *testing.T) {
	everyOther := func(v int, row []int) []int {
		var out []int
		for i, w := range row {
			if i%3 != 1 {
				out = append(out, w)
			}
		}
		return out
	}
	// atMiddle gives the middle sender the list bad builds and every other
	// sender an ascending subset.
	atMiddle := func(n int, bad func(v int, row []int) []int) func(v int, row []int) []int {
		return func(v int, row []int) []int {
			if v == n/2 {
				return bad(v, row)
			}
			return everyOther(v, row)
		}
	}
	for name, topo := range stagingTopologies(t) {
		n := topo.N()
		cases := []struct {
			name    string
			targets func(v int, row []int) []int
		}{
			{"row", func(v int, row []int) []int { return row }},
			{"row prefix", func(v int, row []int) []int { return row[:(len(row)+1)/2] }},
			{"row copy", func(v int, row []int) []int { return slices.Clone(row) }},
			{"ascending subset", everyOther},
			{"ascending odd positions", func(v int, row []int) []int {
				var out []int
				for i := 1; i < len(row); i += 2 {
					out = append(out, row[i])
				}
				return out
			}},
			{"non-prefix subslice", func(v int, row []int) []int { return row[1:] }},
			{"descending", func(v int, row []int) []int {
				out := slices.Clone(row)
				slices.Reverse(out)
				return out
			}},
			{"rotated", func(v int, row []int) []int {
				k := len(row) / 2
				return append(slices.Clone(row[k:]), row[:k]...)
			}},
			{"duplicates", func(v int, row []int) []int {
				var out []int
				for _, w := range row {
					out = append(out, w, w)
				}
				return append(out, row[0])
			}},
			{"bad non-neighbor", atMiddle(n, func(v int, row []int) []int {
				return insertSorted(everyOther(v, row), firstNonNeighbor(topo, v))
			})},
			{"bad outside the graph", atMiddle(n, func(v int, row []int) []int {
				return append(everyOther(v, row), n)
			})},
			{"bad negative", atMiddle(n, func(v int, row []int) []int {
				return append([]int{-1}, row...)
			})},
			{"bad sender itself", atMiddle(n, func(v int, row []int) []int {
				return insertSorted(row, v)
			})},
			{"empty", func(v int, row []int) []int {
				if v%2 == 0 {
					return nil
				}
				return row[:0]
			}},
		}
		for bw, nw := range stagingNetworks(topo) {
			for _, c := range cases {
				t.Run(name+"/"+bw+"/"+c.name, func(t *testing.T) {
					msg := func(v int) *msgWave { return &msgWave{Tau: v % 5, Delta: v} }
					got := stageSenders(nw, func(ob *Outbox, v int, row []int) {
						ob.Broadcast(c.targets(v, row), msg(v))
					})
					want := stageSenders(nw, func(ob *Outbox, v int, row []int) {
						for _, to := range c.targets(v, row) {
							ob.Put(to, msg(v))
						}
					})
					checkOracleError(t, c.name, bw, want.err)
					compareStaging(t, got, want)
				})
			}
		}
	}
}

// TestPutAtStagesLikePut holds putAt(i, to) to Put(to) for every sender and
// every position: the row positions themselves, repeated ones (a bandwidth
// error at the default bandwidth), and positions that do not hold `to` —
// another neighbor's, negative, past the row — which must take Put's
// validated path, down to a non-neighbor's error. Both encode once per
// copy, so the arenas and the records themselves must match too.
func TestPutAtStagesLikePut(t *testing.T) {
	type copyAt struct{ i, to int }
	for name, topo := range stagingTopologies(t) {
		n := topo.N()
		cases := []struct {
			name   string
			copies func(v int, row []int) []copyAt
		}{
			{"row positions", func(v int, row []int) (out []copyAt) {
				for i, w := range row {
					out = append(out, copyAt{i, w})
				}
				return out
			}},
			{"repeated", func(v int, row []int) (out []copyAt) {
				for i, w := range row {
					out = append(out, copyAt{i, w}, copyAt{i, w})
				}
				return out
			}},
			{"another neighbor's position", func(v int, row []int) (out []copyAt) {
				for i, w := range row {
					out = append(out, copyAt{(i + 1) % len(row), w})
				}
				return out
			}},
			{"the first neighbor's position", func(v int, row []int) (out []copyAt) {
				for _, w := range row {
					out = append(out, copyAt{0, w})
				}
				return out
			}},
			{"negative", func(v int, row []int) (out []copyAt) {
				for _, w := range row {
					out = append(out, copyAt{-1, w})
				}
				return out
			}},
			{"past the row", func(v int, row []int) (out []copyAt) {
				for i, w := range row {
					out = append(out, copyAt{len(row) + i, w})
				}
				return out
			}},
			{"bad non-neighbor", func(v int, row []int) (out []copyAt) {
				out = []copyAt{{0, row[0]}}
				if v == n/2 {
					out = append(out, copyAt{0, firstNonNeighbor(topo, v)}, copyAt{-1, v})
				}
				return out
			}},
		}
		for bw, nw := range stagingNetworks(topo) {
			for _, c := range cases {
				t.Run(name+"/"+bw+"/"+c.name, func(t *testing.T) {
					msg := func(v, k int) *msgWave { return &msgWave{Tau: k % 5, Delta: v} }
					got := stageSenders(nw, func(ob *Outbox, v int, row []int) {
						for k, c := range c.copies(v, row) {
							ob.putAt(c.i, c.to, msg(v, k))
						}
					})
					want := stageSenders(nw, func(ob *Outbox, v int, row []int) {
						for k, c := range c.copies(v, row) {
							ob.Put(c.to, msg(v, k))
						}
					})
					checkOracleError(t, c.name, bw, want.err)
					compareStaging(t, got, want)
					if !slices.Equal(got.q, want.q) || !slices.Equal(got.dest, want.dest) {
						t.Fatal("staged records differ")
					}
					if !slices.Equal(got.arena.written(), want.arena.written()) {
						t.Fatal("arena words differ")
					}
				})
			}
		}
	}
}

// TestSlotConvergecastCachedParentAcrossRuns runs one skeleton-relay
// Session three times, with different own-slot inputs each time, and
// requires each run to match RunReference on a freshly built network —
// whose programs have no cached positions yet — in outputs, Metrics and
// the observer trace. Each non-root program keeps its parent's row
// position from the first run on; the root, which has no parent, never
// looks one up.
func TestSlotConvergecastCachedParentAcrossRuns(t *testing.T) {
	topo, err := NewTopology(graph.WithWeights(graph.RandomConnected(48, 0.1, 9), 7, 3))
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := PreprocessOn(topo)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 40
	n := topo.N()
	slots := (n + 3) / 4
	slotOf := func(v int) int {
		if v%4 == 0 {
			return v / 4
		}
		return -1
	}
	mk := func(v int) *SlotConvergecastNode {
		return NewSlotConvergecastNode(info, v, KindSkelUp, KindSkelDown, slots, bound, slotOf(v), nil)
	}
	own := func(run, v int) int {
		if v%12 == 4 {
			return -1
		}
		return (v*7 + run*13) % (bound + 1)
	}
	maxRounds := 2*(info.D+slots+1) + 4

	var trace []string
	sess := NewSession(topo, mk, WithObserver(recordObs(&trace)))
	for run := 0; run < 3; run++ {
		var wantTrace []string
		fresh := make([]*SlotConvergecastNode, n)
		nw := NewNetworkOn(topo, func(v int) Node {
			fresh[v] = mk(v)
			fresh[v].Own = own(run, v)
			fresh[v].ResetNode() // installs Own, as Session.Run does
			return fresh[v]
		}, WithObserver(recordObs(&wantTrace)))
		if err := nw.RunReference(maxRounds); err != nil {
			t.Fatalf("run %d: RunReference: %v", run, err)
		}

		trace = trace[:0]
		for v, nd := range sess.Nodes() {
			nd.Own = own(run, v)
		}
		if err := sess.Run(maxRounds); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for v, nd := range sess.Nodes() {
			if !slices.Equal(nd.Vec, fresh[v].Vec) {
				t.Fatalf("run %d: vertex %d holds %v, want %v", run, v, nd.Vec, fresh[v].Vec)
			}
			want := int32(-1)
			if p := info.Parent[v]; p >= 0 {
				want = int32(slices.Index(topo.Neighbors(v), p))
			}
			if nd.parentAt != want {
				t.Fatalf("run %d: vertex %d caches parent position %d, want %d", run, v, nd.parentAt, want)
			}
		}
		if sess.Metrics() != nw.Metrics() {
			t.Errorf("run %d: Metrics = %+v, want %+v", run, sess.Metrics(), nw.Metrics())
		}
		if !reflect.DeepEqual(trace, wantTrace) {
			t.Errorf("run %d: observer trace differs from RunReference (%d vs %d events)", run, len(trace), len(wantTrace))
		}
	}
}
