package graph

import "slices"

// dense is the index-and-offset view the geography queries (Connected,
// Eccentricity, Diameter) traverse: node i stands for ids[i], and its
// neighbours are nbr[off[i]:off[i+1]]. Exact diameter is n BFS runs per
// snapshot, so each run must touch flat int32 arrays rather than build a
// map; the buffers are kept on the Graph and only ever resliced, so a warm
// query allocates nothing.
type dense struct {
	ids   []NodeID // ascending, so an id's index is a binary search away
	off   []int32  // len n+1
	nbr   []int32  // len 2·edges
	dist  []int32  // per BFS: hop distance from the source, -1 = unreached
	queue []int32  // per BFS: every node enters once, so n slots suffice
}

// view rebuilds the graph's dense view from its current adjacency and
// returns it.
func (g *Graph) view() *dense {
	d := &g.dense
	d.ids = g.AppendNodes(d.ids[:0])
	d.off, d.nbr = d.off[:0], d.nbr[:0]
	for _, v := range d.ids {
		d.off = append(d.off, int32(len(d.nbr)))
		for _, u := range g.adj[v] {
			d.nbr = append(d.nbr, d.index(u))
		}
	}
	d.off = append(d.off, int32(len(d.nbr)))
	n := len(d.ids)
	d.dist, d.queue = slices.Grow(d.dist[:0], n)[:n], slices.Grow(d.queue[:0], n)[:n]
	return d
}

// index returns the index of v, which must be a node of the view.
func (d *dense) index(v NodeID) int32 {
	i, _ := slices.BinarySearch(d.ids, v)
	return int32(i)
}

// bfs runs one breadth-first search from index src and returns the
// source's eccentricity within what it reached, and how many nodes that
// was (src included).
func (d *dense) bfs(src int32) (ecc int32, reached int) {
	dist, queue, off, nbr := d.dist, d.queue, d.off, d.nbr
	for i := range dist {
		dist[i] = -1
	}
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
