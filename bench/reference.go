package main

import "time"

// refSearch is the benchmark's yardstick for host speed: a breadth-first
// search over a fixed grid, written here rather than taken from the
// repository, so no change to the repository changes its work. The host
// is a few vCPUs shared with other tenants, and their load slows every
// memory-touching loop by up to 2x for seconds to minutes at a time. A
// search timed just before each call slows with it, so dividing the call
// by it cancels most of that drift while a change to the repository's code
// still moves the quotient in full.
type refSearch struct {
	off, adj, dist, queue []int32
}

// refSide is the grid's side: 512² vertices, about 7 MB of arrays, which
// is more than a core's L2 cache, like the workloads' working sets. One
// search takes about 6 ms on the calibration host.
const refSide = 512

// refNominal scales the quotients back to seconds: a host-adjusted time
// is the time the call would take on a host where one reference search
// takes exactly refNominal seconds.
const refNominal = 0.005

func newRefSearch(side int) *refSearch {
	n := side * side
	r := &refSearch{off: make([]int32, n+1), adj: make([]int32, 0, 4*n), dist: make([]int32, n), queue: make([]int32, n)}
	for v := 0; v < n; v++ {
		x, y := v%side, v/side
		if y > 0 {
			r.adj = append(r.adj, int32(v-side))
		}
		if x > 0 {
			r.adj = append(r.adj, int32(v-1))
		}
		if x < side-1 {
			r.adj = append(r.adj, int32(v+1))
		}
		if y < side-1 {
			r.adj = append(r.adj, int32(v+side))
		}
		r.off[v+1] = int32(len(r.adj))
	}
	return r
}

// refSink keeps the searches' results live.
var refSink int64

// time runs one search from vertex 0 and returns its wall time in seconds.
func (r *refSearch) time() float64 {
	start := time.Now()
	for i := range r.dist {
		r.dist[i] = -1
	}
	r.dist[0], r.queue[0] = 0, 0
	head, tail := 0, 1
	var sum int64
	for head < tail {
		v := r.queue[head]
		head++
		d := r.dist[v] + 1
		sum += int64(d)
		for _, u := range r.adj[r.off[v]:r.off[v+1]] {
			if r.dist[u] < 0 {
				r.dist[u] = d
				r.queue[tail] = u
				tail++
			}
		}
	}
	refSink += sum
	return time.Since(start).Seconds()
}
