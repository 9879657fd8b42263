// Metropolis: a sparse multi-million-vertex grid, end to end. The seed of
// this repository simulated CONGEST networks of a few hundred vertices;
// this example streams a grid's edges straight into CSR arenas (no
// per-vertex adjacency slices ever exist), builds the engine Topology
// directly from the packed form, and then runs a real distributed BFS
// flood over every node on the frontier scheduler — the engine executes
// only the expanding wave each round, so the wall-clock cost is the
// delivered messages, not the n x rounds vertex-round pairs an
// every-vertex-every-round executor would grind through. At -n 10000000
// the whole build (stream, oracle, topology) is a few seconds.
//
// The flood program is written against the public CONGEST programming
// layer (a custom wire kind from the user-reserved range plus the
// CongestScheduled activity contract), so it doubles as a template for
// frontier-friendly user programs.
//
//	go run ./examples/metropolis                 # 1M vertices
//	go run ./examples/metropolis -n 10000000     # 10M vertices
//	go run ./examples/metropolis -side 300       # smaller
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"qcongest"
)

// distMsg carries a BFS distance, pre-incremented by the sender. Values
// are < n, so the payload is one vertex-id-sized field.
type distMsg struct{ D int }

const kindDist = qcongest.MessageKind(20) // user-reserved range 20..31

func (m *distMsg) WireKind() qcongest.MessageKind     { return kindDist }
func (m *distMsg) MarshalWire(w *qcongest.WireWriter) { w.WriteID(m.D, w.N) }
func (m *distMsg) UnmarshalWire(r *qcongest.WireReader) {
	m.D = r.ReadID(r.N)
}

func init() {
	qcongest.RegisterMessageKind(kindDist, "metro-dist", func() qcongest.WireMessage { return new(distMsg) })
}

// floodNode learns its BFS distance from vertex 0 and relays it once: the
// textbook wave, written frontier-style. The source acts in round 1, and
// every other vertex relays in the round after it is reached; NextWake
// tells the scheduler exactly these rounds.
type floodNode struct {
	dist int // -1 until reached
	pend bool
	tx   distMsg
	rx   distMsg
}

func (f *floodNode) Send(env *qcongest.CongestEnv, out *qcongest.Outbox) {
	if env.ID == 0 && f.dist == -1 {
		f.dist = 0
		f.pend = true
	}
	if !f.pend {
		return
	}
	f.pend = false
	f.tx.D = f.dist + 1
	out.Broadcast(env.Neighbors, &f.tx)
}

func (f *floodNode) Receive(env *qcongest.CongestEnv, inbox []qcongest.Inbound) {
	for i := range inbox {
		in := &inbox[i]
		if in.Kind != kindDist || in.Decode(env, &f.rx) != nil {
			continue
		}
		if f.dist == -1 || f.rx.D < f.dist {
			f.dist = f.rx.D
			f.pend = true
		}
	}
}

func (f *floodNode) Done() bool { return f.dist >= 0 && !f.pend }

// NextWake implements qcongest.CongestScheduled.
func (f *floodNode) NextWake(env *qcongest.CongestEnv, round int) int {
	if env.ID == 0 && f.dist == -1 {
		return 1 // seed the wave
	}
	if f.pend {
		return round + 1 // relay next round
	}
	return 0 // congest.NeverWake: message-driven
}

func main() {
	var (
		side       = flag.Int("side", 1000, "grid side (side*side vertices)")
		nFlag      = flag.Int("n", 0, "target vertex count (overrides -side with floor(sqrt(n)))")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	)
	flag.Parse()
	if *nFlag > 0 {
		*side = int(math.Sqrt(float64(*nFlag)))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print("memprofile: ", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print("memprofile: ", err)
			}
		}()
	}

	// 1. Build: stream the grid's edges straight into the packed CSR form —
	// a degree pass and a placement pass over the generator's edge order,
	// three array allocations total, no intermediate adjacency slices.
	start := time.Now()
	csr, err := qcongest.BuildCSRFromStream((*side)*(*side), qcongest.GridEdges(*side, *side))
	if err != nil {
		log.Fatal(err)
	}
	n := csr.N()
	buildT := time.Since(start)
	fmt.Printf("grid %dx%d: n=%d m=%d streamed into CSR in %v\n", *side, *side, n, csr.M(), buildT)

	// 2. Oracle: BFS from the corner on the packed form, into two
	// preallocated buffers.
	start = time.Now()
	dist := make([]int32, n)
	queue := make([]int32, n)
	reached, ecc := csr.BFSInto(0, dist, queue)
	fmt.Printf("csr oracle: reached %d vertices, ecc(corner)=%d in %v\n", reached, ecc, time.Since(start))

	// 3. Topology: built directly on the CSR — the offsets array is shared,
	// the connectivity check is the same allocation-lean BFS, and no
	// per-vertex graph object ever exists.
	start = time.Now()
	topo, err := qcongest.NewCongestTopologyFromCSR(csr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology built in %v (total build %v)\n", time.Since(start), buildT+time.Since(start))

	// 4. Run the distributed flood.
	nw := qcongest.NewCongestNetworkOn(topo, func(v int) qcongest.CongestNode { return &floodNode{dist: -1} })
	start = time.Now()
	if err := nw.Run(4*(*side) + 16); err != nil {
		log.Fatal(err)
	}
	runT := time.Since(start)
	m := nw.Metrics()
	fmt.Printf("flood: rounds=%d messages=%d bits=%d in %v (%.0f rounds/s, %.2fM msgs/s)\n",
		m.Rounds, m.Messages, m.Bits, runT,
		float64(m.Rounds)/runT.Seconds(), float64(m.Messages)/runT.Seconds()/1e6)

	// 5. Verify the distributed result against the oracle, every vertex.
	bad := 0
	for v := 0; v < n; v++ {
		if nw.Node(v).(*floodNode).dist != int(dist[v]) {
			bad++
		}
	}
	if bad != 0 {
		log.Fatalf("distributed flood disagrees with the CSR oracle at %d vertices", bad)
	}
	fmt.Printf("verified: all %d distributed distances match the CSR oracle\n", n)
}
