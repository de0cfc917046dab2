package topology

import "repro/internal/graph"

// Static graph builders for fixed-topology experiments (diameter sweeps,
// static baselines). Node IDs are 1..n to match the churn generator's
// ID allocation convention.

// BuildRing returns the cycle on n nodes (diameter floor(n/2) for n >= 3).
func BuildRing(n int) *graph.Graph {
	g := graph.New()
	for i := 1; i <= n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for i := 1; i <= n && n > 1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i%n+1))
	}
	return g
}
