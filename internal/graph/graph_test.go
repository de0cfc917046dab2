package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func ring(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

func path(n int) *Graph {
	g := New()
	g.AddNode(0)
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(i-1), NodeID(i))
	}
	return g
}

func complete(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

func TestAddRemoveNode(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1) // idempotent
	if !g.HasNode(1) || g.NumNodes() != 1 {
		t.Fatal("AddNode failed")
	}
	g.RemoveNode(1)
	g.RemoveNode(1) // no-op
	if g.HasNode(1) || g.NumNodes() != 0 {
		t.Fatal("RemoveNode failed")
	}
}

func TestRemoveNodeDropsEdges(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.RemoveNode(2)
	if g.HasEdge(1, 2) || g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Fatal("edges to removed node survive")
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d after removing hub", g.NumEdges())
	}
	if !g.HasNode(1) || !g.HasNode(3) {
		t.Fatal("unrelated nodes removed")
	}
}

func TestEdgeSymmetry(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge not symmetric")
	}
	g.RemoveEdge(2, 1)
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge removal not symmetric")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New().AddEdge(1, 1)
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, v := range []NodeID{5, 1, 9, 3} {
		g.AddNode(v)
	}
	want := []NodeID{1, 3, 5, 9}
	got := g.Nodes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New()
	g.AddEdge(0, 7)
	g.AddEdge(0, 2)
	g.AddEdge(0, 5)
	got := g.Neighbors(0)
	want := []NodeID{2, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(5)
	dist := g.BFS(0)
	for i := 0; i < 5; i++ {
		if dist[NodeID(i)] != i {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[NodeID(i)], i)
		}
	}
}

func TestBFSAbsentSource(t *testing.T) {
	if d := New().BFS(42); len(d) != 0 {
		t.Fatalf("BFS from absent node returned %v", d)
	}
}

func TestConnected(t *testing.T) {
	if !New().Connected() {
		t.Error("empty graph should be connected by convention")
	}
	if !ring(5).Connected() {
		t.Error("ring(5) should be connected")
	}
	g := ring(5)
	g.AddNode(100)
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
}

func TestComponents(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddNode(9)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v, want 3 components", comps)
	}
	if comps[0][0] != 1 || comps[1][0] != 3 || comps[2][0] != 9 {
		t.Fatalf("component order wrong: %v", comps)
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
		ok   bool
	}{
		{"ring8", ring(8), 4, true},
		{"ring9", ring(9), 4, true},
		{"path5", path(5), 4, true},
		{"complete6", complete(6), 1, true},
		{"empty", New(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.g.Diameter()
		if got != c.want || ok != c.ok {
			t.Errorf("%s: Diameter = %d,%v want %d,%v", c.name, got, ok, c.want, c.ok)
		}
	}
	disc := New()
	disc.AddNode(1)
	disc.AddNode(2)
	if _, ok := disc.Diameter(); ok {
		t.Error("disconnected graph reported a diameter")
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	if ecc, ok := g.Eccentricity(2); !ok || ecc != 2 {
		t.Errorf("Eccentricity(center of path5) = %d,%v, want 2,true", ecc, ok)
	}
	if ecc, ok := g.Eccentricity(0); !ok || ecc != 4 {
		t.Errorf("Eccentricity(end of path5) = %d,%v, want 4,true", ecc, ok)
	}
	if _, ok := g.Eccentricity(99); ok {
		t.Error("Eccentricity of absent node reported ok")
	}
}

func TestClone(t *testing.T) {
	g := ring(6)
	c := g.Clone()
	c.RemoveNode(0)
	if !g.HasNode(0) || !g.HasEdge(0, 1) {
		t.Fatal("mutating clone affected original")
	}
	if c.NumNodes() != 5 {
		t.Fatalf("clone has %d nodes after removal", c.NumNodes())
	}
}

func TestSingletonConnected(t *testing.T) {
	g := New()
	g.AddNode(7)
	if !g.Connected() {
		t.Error("singleton should be connected")
	}
	if d, ok := g.Diameter(); !ok || d != 0 {
		t.Errorf("singleton diameter = %d,%v", d, ok)
	}
}

// Property: in a random graph, BFS distance obeys the triangle inequality
// through any edge, and diameter >= eccentricity is impossible to violate.
func TestPropertyBFSConsistency(t *testing.T) {
	r := rng.New(99)
	check := func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		g := New()
		n := 3 + rr.Intn(20)
		for i := 0; i < n; i++ {
			g.AddNode(NodeID(i))
		}
		for i := 0; i < n*2; i++ {
			u, v := NodeID(rr.Intn(n)), NodeID(rr.Intn(n))
			if u != v {
				g.AddEdge(u, v)
			}
		}
		dist := g.BFS(0)
		for u, du := range dist {
			for _, v := range g.Neighbors(u) {
				dv, ok := dist[v]
				if !ok {
					return false // neighbor of reached node unreached
				}
				if dv > du+1 || du > dv+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDiameterRing64(b *testing.B) {
	g := ring(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Diameter()
	}
}

func BenchmarkDiameterStar64(b *testing.B) {
	g := star(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Diameter()
	}
}

func BenchmarkDiameterRandomK64(b *testing.B) {
	g := randomK(64, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Diameter()
	}
}
