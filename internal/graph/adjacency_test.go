package graph

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// refGraph is the map-of-maps adjacency the sorted neighbour lists
// replaced, kept (its methods verbatim) as the reference they must agree
// with.
type refGraph struct {
	adj map[NodeID]map[NodeID]bool
}

func newRef() *refGraph { return &refGraph{adj: make(map[NodeID]map[NodeID]bool)} }

func (g *refGraph) AddNode(v NodeID) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = make(map[NodeID]bool)
	}
}

func (g *refGraph) RemoveNode(v NodeID) {
	if _, ok := g.adj[v]; !ok {
		return
	}
	for u := range g.adj[v] {
		delete(g.adj[u], v)
	}
	delete(g.adj, v)
}

func (g *refGraph) AddEdge(u, v NodeID) {
	if u == v {
		panic("graph: self-loop")
	}
	g.AddNode(u)
	g.AddNode(v)
	g.adj[u][v] = true
	g.adj[v][u] = true
}

func (g *refGraph) RemoveEdge(u, v NodeID) {
	if _, ok := g.adj[u]; ok {
		delete(g.adj[u], v)
	}
	if _, ok := g.adj[v]; ok {
		delete(g.adj[v], u)
	}
}

// Link and Unlink are what topology.Manual's did before graph.Graph had
// its own: presence, self-pair and adjacency checks, then the edge flip.
func (g *refGraph) Link(u, v NodeID) bool {
	_, hasU := g.adj[u]
	_, hasV := g.adj[v]
	if u == v || !hasU || !hasV || g.HasEdge(u, v) {
		return false
	}
	g.AddEdge(u, v)
	return true
}

func (g *refGraph) Unlink(u, v NodeID) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.RemoveEdge(u, v)
	return true
}

func (g *refGraph) HasEdge(u, v NodeID) bool {
	return g.adj[u][v]
}

func (g *refGraph) NumEdges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

func (g *refGraph) Degree(v NodeID) int { return len(g.adj[v]) }

func (g *refGraph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (g *refGraph) Neighbors(v NodeID) []NodeID {
	nbrs := g.adj[v]
	out := make([]NodeID, 0, len(nbrs))
	for u := range nbrs {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

func (g *refGraph) BFS(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if _, ok := g.adj[src]; !ok {
		return dist
	}
	dist[src] = 0
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, v := range frontier {
			for u := range g.adj[v] {
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

func (g *refGraph) Components() [][]NodeID {
	seen := make(map[NodeID]bool)
	var comps [][]NodeID
	for _, v := range g.Nodes() {
		if seen[v] {
			continue
		}
		var comp []NodeID
		for u := range g.BFS(v) {
			seen[u] = true
			comp = append(comp, u)
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// agree fails unless g answers every adjacency query exactly as ref does:
// per node (and for one absent id) Neighbors, AppendNeighbors onto a
// non-empty dst, Degree and HasEdge against every id, then NumEdges and
// Components. ids lists the ids the changes draw from, then one that is
// never a node. BFS, the costly one, is compared from ids[bfsFrom] only,
// or from every id when bfsFrom is negative.
func agree(t *testing.T, where string, g *Graph, ref *refGraph, ids []NodeID, bfsFrom int) {
	t.Helper()
	if got, want := g.Nodes(), ref.Nodes(); !slices.Equal(got, want) {
		t.Fatalf("%s: Nodes = %v, want %v", where, got, want)
	}
	prefix := []NodeID{-7, -3}
	for i, v := range ids {
		want := ref.Neighbors(v)
		if got := g.Neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", where, v, got, want)
		}
		dst := slices.Clip(slices.Clone(prefix))
		if got := g.AppendNeighbors(dst, v); !slices.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("%s: AppendNeighbors(%v, %d) = %v, want the prefix then %v", where, prefix, v, got, want)
		}
		if got, want := g.Degree(v), ref.Degree(v); got != want {
			t.Fatalf("%s: Degree(%d) = %d, want %d", where, v, got, want)
		}
		for _, u := range ids {
			if got, want := g.HasEdge(v, u), ref.HasEdge(v, u); got != want {
				t.Fatalf("%s: HasEdge(%d, %d) = %v, want %v", where, v, u, got, want)
			}
		}
		if bfsFrom < 0 || i == bfsFrom {
			if got, want := g.BFS(v), ref.BFS(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BFS(%d) = %v, want %v", where, v, got, want)
			}
		}
	}
	if got, want := g.NumEdges(), ref.NumEdges(); got != want {
		t.Fatalf("%s: NumEdges = %d, want %d", where, got, want)
	}
	if got, want := g.Components(), ref.Components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Components = %v, want %v", where, got, want)
	}
}

// TestAdjacencyMatchesReference drives the graph and the map-of-maps
// reference through the same seeded random node and edge changes over
// 2..40 ids — repeated adds and removes of present and absent nodes and
// edges included, and Link/Unlink flips whose pairs may be self pairs,
// have absent endpoints or already be (non-)adjacent, with their reported
// flags compared — and requires them to agree after every one, BFS from
// one id in turn. Every tenth step BFS must agree from every id, and a
// Clone must agree too and stay independent: changing the clone leaves
// the original as it was. Even seeds draw ids 0..n-1; odd seeds draw
// them from spreadIDs, across the adjacency table's page and book
// boundaries.
func TestAdjacencyMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		n := 2 + int(seed%39)
		ids := make([]NodeID, n+1) // ids[n] is never a node
		for i := range ids {
			ids[i] = NodeID(i)
			if seed%2 == 1 {
				ids[i] = spreadIDs[i]
			}
		}
		id := func() NodeID { return ids[r.Intn(n)] }
		g, ref := New(), newRef()
		for step := 0; step < 200; step++ {
			switch r.Intn(10) {
			case 0:
				v := id()
				g.AddNode(v)
				ref.AddNode(v)
			case 1:
				v := id()
				g.RemoveNode(v)
				ref.RemoveNode(v)
			case 2, 3, 4, 5:
				if u, v := id(), id(); u != v {
					g.AddEdge(u, v)
					ref.AddEdge(u, v)
				}
			case 6, 7:
				u, v := id(), id()
				g.RemoveEdge(u, v)
				ref.RemoveEdge(u, v)
			case 8:
				u, v := id(), id()
				if got, want := g.Link(u, v), ref.Link(u, v); got != want {
					t.Fatalf("seed %d step %d: Link(%d, %d) = %v, want %v", seed, step, u, v, got, want)
				}
			case 9:
				u, v := id(), id()
				if got, want := g.Unlink(u, v), ref.Unlink(u, v); got != want {
					t.Fatalf("seed %d step %d: Unlink(%d, %d) = %v, want %v", seed, step, u, v, got, want)
				}
			}
			if step%10 != 0 {
				agree(t, "graph", g, ref, ids, step%(n+1))
				continue
			}
			agree(t, "graph", g, ref, ids, -1)
			c := g.Clone()
			agree(t, "clone", c, ref, ids, -1)
			for _, v := range c.Nodes() {
				c.RemoveNode(v)
			}
			c.AddEdge(ids[0], ids[1])
			agree(t, "original after changing its clone", g, ref, ids, 0)
		}
	}
}

// spreadIDs holds 41 distinct ids on both sides of the adjacency table's
// page and book boundaries, up to MaxNodeID.
var spreadIDs = []NodeID{
	0, 1, pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 1, 2 * pageSize, 5*pageSize + 7,
	bookIDs - 1, bookIDs, bookIDs + 1, 2 * bookIDs, 3*bookIDs + 5,
	MaxNodeID, MaxNodeID - 1, MaxNodeID - pageSize + 1, MaxNodeID - pageSize, MaxNodeID - bookIDs, MaxNodeID - bookIDs + 1,
	1<<30 - 1, 1 << 30, 1<<30 + 1, 1 << 24,
	2, 3, 511, 512, 1000, 1500, 2047, 3000, 3071, 3072, 4095, 4096, 9999,
	1<<25 + 3, 77777, 123456, 1<<29 + pageSize, MaxNodeID - 2,
}

// bookIDs is how many consecutive IDs one book of the table pages.
const bookIDs = 1 << (pageBits + bookBits)
