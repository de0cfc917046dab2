package graph

import (
	"math"
	"slices"
)

// dense is the index-and-offset view the geography queries (Connected,
// Components, Eccentricity, Diameter, DiameterAbove) traverse: node i
// stands for ids[i], and its neighbours are nbr[off[i]:off[i+1]]. A
// diameter is a handful of BFS runs per snapshot (n on a vertex-transitive
// graph such as a ring), so each run must touch flat int32 arrays rather
// than build a map; the buffers are kept on the Graph and only ever
// resliced, so a warm query allocates nothing.
type dense struct {
	ids   []NodeID // ascending, so an id's index is a binary search away
	off   []int32  // len n+1
	nbr   []int32  // len 2·edges
	dist  []int32  // per BFS: hop distance from the source, -1 = unreached
	queue []int32  // per BFS: every node enters once, so n slots suffice
	ub    []int32  // per diameter: an upper bound on each node's eccentricity
	// runs counts BFS traversals; only tests read it, to pin the pruning.
	runs int
}

// view rebuilds the graph's dense view from its current adjacency and
// returns it.
func (g *Graph) view() *dense {
	d := &g.dense
	d.ids = g.AppendNodes(d.ids[:0])
	d.off, d.nbr = d.off[:0], d.nbr[:0]
	for _, v := range d.ids {
		d.off = append(d.off, int32(len(d.nbr)))
		for _, u := range g.nbrs(v) {
			d.nbr = append(d.nbr, d.index(u))
		}
	}
	d.off = append(d.off, int32(len(d.nbr)))
	n := len(d.ids)
	d.dist, d.queue = slices.Grow(d.dist[:0], n)[:n], slices.Grow(d.queue[:0], n)[:n]
	d.ub = slices.Grow(d.ub[:0], n)[:n]
	for i := range d.dist {
		d.dist[i] = -1
	}
	return d
}

// index returns the index of v, which must be a node of the view.
func (d *dense) index(v NodeID) int32 {
	i, _ := slices.BinarySearch(d.ids, v)
	return int32(i)
}

// bfs runs one breadth-first search from index src and returns the
// source's eccentricity within what it reached, and how many nodes that
// was (src included). dist must be all -1 on entry: view leaves it so,
// and diameterAbove resets it in the pass that reads it.
func (d *dense) bfs(src int32) (ecc int32, reached int) {
	d.runs++
	dist, queue, off, nbr := d.dist, d.queue, d.off, d.nbr
	dist[src] = 0
	queue[0] = src
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		next := dist[v] + 1
		for _, u := range nbr[off[v]:off[v+1]] {
			if dist[u] < 0 {
				dist[u] = next
				queue[tail] = u
				tail++
			}
		}
	}
	// BFS dequeues in distance order, so the last node queued is a
	// farthest one.
	return dist[queue[tail-1]], tail
}

// diameterAbove returns max(floor, diameter) of a non-empty view, and
// false if it is disconnected. It bounds eccentricities instead of
// enumerating them (Takes & Kosters, CIKM 2011): after a BFS from u, every
// node i has ecc(i) ≤ ecc(u) + dist_u(i) by the triangle inequality, and
// ub keeps the least such bound over the finished sources (a finished
// source's own bound is its eccentricity). The next source is the node
// with the largest bound, and the loop stops once no bound exceeds
// max(floor, best eccentricity seen) — then no eccentricity does either.
func (d *dense) diameterAbove(floor int) (int, bool) {
	ub, off := d.ub, d.off
	// The first source is a highest-degree node: it sits central, so its
	// bounds are tight. It also decides connectivity — the graph is
	// undirected, so if one source misses a node every source does.
	src := 0
	for i := range ub {
		ub[i] = math.MaxInt32
		if off[i+1]-off[i] > off[src+1]-off[src] {
			src = i
		}
	}
	best := int32(-1)
	for {
		ecc, reached := d.bfs(int32(src))
		if reached != len(ub) {
			return 0, false
		}
		best = max(best, ecc)
		stop := max(floor, int(best))
		// One pass tightens every bound, picks the largest one above stop
		// (strictly: ties go to the lowest index) and resets dist for the
		// next run.
		src = -1
		top := stop
		dist := d.dist[:len(ub)]
		for i, b := range ub {
			b = min(b, ecc+dist[i])
			ub[i], dist[i] = b, -1
			if int(b) > top {
				src, top = i, int(b)
			}
		}
		if src < 0 {
			return stop, true
		}
	}
}
