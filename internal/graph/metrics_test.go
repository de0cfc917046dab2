package graph

import "testing"

func triangleWithTail() *Graph {
	g := New()
	for _, e := range [][2]NodeID{{1, 2}, {2, 3}, {1, 3}, {3, 4}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestLocalClustering(t *testing.T) {
	g := triangleWithTail()
	if c := g.LocalClustering(1); c != 1 {
		t.Fatalf("triangle corner clustering = %v", c)
	}
	// Node 3 sees neighbors {1, 2, 4}: of its three pairs only (1, 2) is
	// an edge.
	if c := g.LocalClustering(3); c != 1.0/3.0 {
		t.Fatalf("junction clustering = %v", c)
	}
	// Degree-1 nodes have no pairs.
	if c := g.LocalClustering(4); c != 0 {
		t.Fatalf("leaf clustering = %v", c)
	}
	if c := g.LocalClustering(99); c != 0 {
		t.Fatalf("absent node clustering = %v", c)
	}
}

func TestAvgClustering(t *testing.T) {
	if c := New().AvgClustering(); c != 0 {
		t.Fatalf("empty graph clustering = %v", c)
	}
	// A ring has no triangles.
	ring := New()
	for i := NodeID(0); i < 6; i++ {
		ring.AddEdge(i, (i+1)%6)
	}
	if c := ring.AvgClustering(); c != 0 {
		t.Fatalf("ring clustering = %v", c)
	}
	// A complete graph is all triangles.
	k4 := New()
	for i := NodeID(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k4.AddEdge(i, j)
		}
	}
	if c := k4.AvgClustering(); c != 1 {
		t.Fatalf("K4 clustering = %v", c)
	}
	// Triangle + tail: (1 + 1 + 1/3 + 0) / 4.
	if got, want := triangleWithTail().AvgClustering(), (1+1+1.0/3)/4; got != want {
		t.Fatalf("mixed clustering = %v, want %v", got, want)
	}
}

func TestMaxDegree(t *testing.T) {
	if got := triangleWithTail().MaxDegree(); got != 3 {
		t.Fatalf("max degree = %d", got)
	}
	if got := New().MaxDegree(); got != 0 {
		t.Fatalf("empty max degree = %d", got)
	}
}
