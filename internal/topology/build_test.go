package topology

import (
	"testing"

	"repro/internal/graph"
)

// buildSizes sweeps the static builders across the population range the
// experiments actually use: tiny (6), awkward prime (37), round (100),
// and the largest E27 world (256).
var buildSizes = []int{6, 37, 100, 256}

func TestBuildRingSizes(t *testing.T) {
	for _, n := range buildSizes {
		g := BuildRing(n)
		if g.NumNodes() != n || g.NumEdges() != n {
			t.Fatalf("ring %d: %d nodes, %d edges", n, g.NumNodes(), g.NumEdges())
		}
		for _, v := range g.Nodes() {
			if g.Degree(v) != 2 {
				t.Fatalf("ring %d: node %d has degree %d", n, v, g.Degree(v))
			}
		}
		d, ok := g.Diameter()
		if !ok || d != n/2 {
			t.Fatalf("ring %d diameter = %d (%v), want %d", n, d, ok, n/2)
		}
	}
}

func TestBuildFingerRingSizes(t *testing.T) {
	for _, n := range buildSizes {
		g := BuildFingerRing(n)
		if g.NumNodes() != n || !g.Connected() {
			t.Fatalf("finger ring %d: %d nodes connected=%v", n, g.NumNodes(), g.Connected())
		}
		// The chords must only shorten paths: never below the ring's node
		// or edge count, and the diameter is logarithmic, not linear.
		if g.NumEdges() < n {
			t.Fatalf("finger ring %d lost ring edges: %d", n, g.NumEdges())
		}
		if d, ok := g.Diameter(); !ok || (n >= 37 && d >= n/4) {
			t.Fatalf("finger ring %d diameter = %d (%v): chords not shortening", n, d, ok)
		}
	}
}

// TestBuildersShareIDConvention: every builder numbers nodes 1..n (the
// churn generator's allocation convention), so experiment scripts can
// address members positionally at any sweep size.
func TestBuildersShareIDConvention(t *testing.T) {
	for _, n := range buildSizes {
		for name, g := range map[string]*graph.Graph{
			"ring": BuildRing(n), "finger ring": BuildFingerRing(n),
		} {
			if !g.HasNode(1) || !g.HasNode(graph.NodeID(n)) || g.HasNode(0) || g.HasNode(graph.NodeID(n+1)) {
				t.Fatalf("%s %d: node IDs not 1..n", name, n)
			}
		}
	}
}
