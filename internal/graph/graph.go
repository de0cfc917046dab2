// Package graph provides the graph-theoretic substrate of the dynamic
// system model: an undirected graph with node/edge dynamics, shortest
// paths, connectivity, exact diameter, and temporal (time-respecting)
// reachability over evolving graphs.
//
// The paper models a dynamic system as an evolving graph G(t) = (P(t),
// E(t)); the geography dimension of a system class is expressed through
// properties of these graphs (connectivity, diameter bounds), so the
// checkers in internal/core lean on this package. All iteration orders are
// deterministic (sorted by node ID) so that simulations replay exactly.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a process/entity. IDs are assigned by the arrival
// model and never reused within a run. The arrival models hand out small
// non-negative IDs, so 32 bits carry every one.
type NodeID int32

// MaxNodeID is the largest identity: every ID source refuses to hand out
// one beyond it, and every wire decoder to read one.
const MaxNodeID NodeID = math.MaxInt32

// WireID converts a 64-bit wire field (a signed ID's two's complement) to
// an identity, refusing one outside [0, MaxNodeID] instead of truncating.
func WireID(u uint64) (NodeID, error) {
	if u > uint64(MaxNodeID) {
		return 0, fmt.Errorf("identity %d is outside [0, %d]", int64(u), MaxNodeID)
	}
	return NodeID(u), nil
}

// Graph is an undirected simple graph. The zero value is not usable;
// construct with New. Self-loops are rejected.
//
// A Graph is not safe for concurrent use, even by readers only: Nodes,
// AppendNodes and AppendNodesExcept fill the node cache, and Connected,
// Eccentricity, Diameter and DiameterAbove also rebuild the dense view
// they traverse.
type Graph struct {
	// adj maps every node to its neighbours, ascending: a membership test
	// is a binary search, and every walk of a node's neighbourhood —
	// Neighbors, the dense view, BFS — is in ID order without a sort. It is
	// a Table, so finding a node's list indexes a page instead of hashing.
	adj Table[[]NodeID]
	// sorted is the ascending node list, built by the first call that
	// reads it (nodeCache) and from then on kept current by binary-search
	// insert and delete: overlays read it on every join, so a membership
	// change costs an O(n) memmove, never a sort.
	sorted      []NodeID
	sortedValid bool
	// dense holds the buffers of the geography queries, reused across
	// calls (and so across every snapshot of a Temporal replay).
	dense dense
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *Graph) AddNode(v NodeID) {
	if g.adj.Ref(v) == nil {
		// Room for a typical overlay degree, so a joiner's first links
		// do not regrow the list one by one.
		g.adj.Set(v, make([]NodeID, 0, 4))
		if g.sortedValid {
			i, _ := slices.BinarySearch(g.sorted, v)
			g.sorted = slices.Insert(g.sorted, i, v)
		}
	}
}

// RemoveNode deletes a node and all incident edges. Removing an absent
// node is a no-op.
func (g *Graph) RemoveNode(v NodeID) {
	nv := g.adj.Ref(v)
	if nv == nil {
		return
	}
	for _, u := range *nv {
		nu := g.adj.Ref(u)
		*nu = remove(*nu, v)
	}
	g.adj.Delete(v)
	if g.sortedValid {
		i, _ := slices.BinarySearch(g.sorted, v)
		g.sorted = slices.Delete(g.sorted, i, i+1)
	}
}

// AddEdge inserts the undirected edge {u, v}, adding missing endpoints.
// Self-loops panic: the system model has no use for them and silently
// accepting one would corrupt diameter computations.
func (g *Graph) AddEdge(u, v NodeID) {
	if u == v {
		panic("graph: self-loop")
	}
	g.AddNode(u)
	g.AddNode(v)
	nu, nv := g.adj.Ref(u), g.adj.Ref(v)
	*nu = insert(*nu, v)
	*nv = insert(*nv, u)
}

// RemoveEdge deletes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v NodeID) {
	if nu := g.adj.Ref(u); nu != nil {
		*nu = remove(*nu, v)
	}
	if nv := g.adj.Ref(v); nv != nil {
		*nv = remove(*nv, u)
	}
}

// Link inserts the edge {u, v} when both endpoints are present, distinct
// and not yet adjacent, and reports whether it did. Unlike AddEdge it never
// adds a node, and it looks each adjacency list up once.
func (g *Graph) Link(u, v NodeID) bool {
	if u == v {
		return false
	}
	nu, nv := g.adj.Ref(u), g.adj.Ref(v)
	if nu == nil || nv == nil {
		return false
	}
	i, found := slices.BinarySearch(*nu, v)
	if found {
		return false
	}
	j, _ := slices.BinarySearch(*nv, u)
	*nu = slices.Insert(*nu, i, v)
	*nv = slices.Insert(*nv, j, u)
	return true
}

// Unlink deletes the edge {u, v} and reports whether it was present,
// looking each adjacency list up once.
func (g *Graph) Unlink(u, v NodeID) bool {
	nu := g.adj.Ref(u)
	if nu == nil {
		return false
	}
	i, found := slices.BinarySearch(*nu, v)
	if !found {
		return false
	}
	nv := g.adj.Ref(v)
	j, _ := slices.BinarySearch(*nv, u)
	*nu = slices.Delete(*nu, i, i+1)
	*nv = slices.Delete(*nv, j, j+1)
	return true
}

// insert adds v to the ascending list nbrs unless it is already there.
func insert(nbrs []NodeID, v NodeID) []NodeID {
	i, found := slices.BinarySearch(nbrs, v)
	if found {
		return nbrs
	}
	return slices.Insert(nbrs, i, v)
}

// remove drops v from the ascending list nbrs if it is there.
func remove(nbrs []NodeID, v NodeID) []NodeID {
	i, found := slices.BinarySearch(nbrs, v)
	if !found {
		return nbrs
	}
	return slices.Delete(nbrs, i, i+1)
}

// HasNode reports whether v is in the graph.
func (g *Graph) HasNode(v NodeID) bool { return g.adj.Ref(v) != nil }

// HasEdge reports whether the undirected edge {u, v} is in the graph.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, found := slices.BinarySearch(g.nbrs(u), v)
	return found
}

// nbrs returns v's ascending neighbour list (nil if v is absent), shared:
// callers must not modify it.
func (g *Graph) nbrs(v NodeID) []NodeID {
	if nv := g.adj.Ref(v); nv != nil {
		return *nv
	}
	return nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.adj.Len() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	g.adj.Each(func(_ NodeID, nbrs []NodeID) { total += len(nbrs) })
	return total / 2
}

// Degree returns the number of neighbors of v (0 if absent).
func (g *Graph) Degree(v NodeID) int { return len(g.nbrs(v)) }

// Nodes returns all node IDs in ascending order. The caller owns the
// returned slice.
func (g *Graph) Nodes() []NodeID {
	return g.AppendNodes(make([]NodeID, 0, g.adj.Len()))
}

// AppendNodes appends all node IDs in ascending order to dst and returns
// the extended slice, so a hot caller can reuse one buffer across calls.
// The caller owns the result.
func (g *Graph) AppendNodes(dst []NodeID) []NodeID {
	return append(dst, g.nodeCache()...)
}

// AppendNodesExcept appends all node IDs but x in ascending order to dst
// and returns the extended slice: AppendNodes without x, copied as the
// two runs on either side of it. x need not be present. The caller owns
// the result.
func (g *Graph) AppendNodesExcept(dst []NodeID, x NodeID) []NodeID {
	sorted := g.nodeCache()
	i, found := slices.BinarySearch(sorted, x)
	dst = append(dst, sorted[:i]...)
	if found {
		i++
	}
	return append(dst, sorted[i:]...)
}

// nodeCache returns the ascending node list, building it if it is not
// valid. Callers must not modify it.
func (g *Graph) nodeCache() []NodeID {
	if !g.sortedValid {
		g.sorted = g.sorted[:0]
		g.adj.Each(func(v NodeID, _ []NodeID) { g.sorted = append(g.sorted, v) })
		slices.Sort(g.sorted)
		g.sortedValid = true
	}
	return g.sorted
}

// Neighbors returns the neighbors of v in ascending order. The caller
// owns the returned slice.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.AppendNeighbors(make([]NodeID, 0, g.Degree(v)), v)
}

// AppendNeighbors appends the neighbors of v in ascending order to dst and
// returns the extended slice, so a hot caller can reuse one buffer across
// calls. The caller owns the result.
func (g *Graph) AppendNeighbors(dst []NodeID, v NodeID) []NodeID {
	return append(dst, g.nbrs(v)...)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	g.adj.Each(func(v NodeID, nbrs []NodeID) { c.adj.Set(v, slices.Clone(nbrs)) })
	return c
}

// BFS returns the hop distance from src to every reachable node
// (including src at distance 0). An absent src yields an empty map.
func (g *Graph) BFS(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.nbrs(v) {
				if _, seen := dist[u]; !seen {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and
// singletons are connected by convention.
func (g *Graph) Connected() bool {
	if g.adj.Len() <= 1 {
		return true
	}
	_, reached := g.view().bfs(0)
	return reached == g.adj.Len()
}

// Components returns the connected components, each sorted ascending,
// ordered by their smallest node ID. It runs one BFS of the dense view
// per component, from its lowest index: a node a BFS reached keeps its
// distance, which marks it seen for the rest of the scan.
func (g *Graph) Components() [][]NodeID {
	d := g.view()
	var comps [][]NodeID
	for i := range d.ids {
		if d.dist[i] >= 0 {
			continue
		}
		_, reached := d.bfs(int32(i))
		members := d.queue[:reached]
		slices.Sort(members)
		comp := make([]NodeID, reached)
		for k, j := range members {
			comp[k] = d.ids[j]
		}
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the greatest hop distance from v to any node, and
// false if some node is unreachable from v or v is absent.
func (g *Graph) Eccentricity(v NodeID) (int, bool) {
	if !g.HasNode(v) {
		return 0, false
	}
	d := g.view()
	ecc, reached := d.bfs(d.index(v))
	if reached != g.adj.Len() {
		return 0, false
	}
	return int(ecc), true
}

// Diameter returns the exact diameter (max eccentricity), and false if
// the graph is disconnected or empty. It is DiameterAbove(0): BFS runs
// pruned by eccentricity bounds, as few as two on a star and all n on a
// graph whose nodes share one eccentricity, such as a ring.
func (g *Graph) Diameter() (int, bool) { return g.DiameterAbove(0) }

// DiameterAbove returns max(floor, diameter) — the exact diameter whenever
// it exceeds floor — and false if the graph is disconnected or empty. A
// caller that needs only a running maximum passes it as the floor, and a
// snapshot whose eccentricities provably do not exceed it costs as few as
// one BFS run.
func (g *Graph) DiameterAbove(floor int) (int, bool) {
	if g.adj.Len() == 0 {
		return 0, false
	}
	return g.view().diameterAbove(floor)
}
