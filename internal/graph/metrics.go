package graph

// Overlay-quality metrics: the PEX membership experiments judge an
// evolving communication graph not just by connectivity but by its
// *shape* — how clustered it is (gossip on a clique-ridden overlay
// revisits itself) and how evenly degree is spread (a hub-biased overlay
// is one crash away from partition).

// LocalClustering returns v's clustering coefficient: the fraction of its
// neighbor pairs that are themselves adjacent. Nodes with fewer than two
// neighbors have no pairs and score 0.
func (g *Graph) LocalClustering(v NodeID) float64 {
	nbrs := g.nbrs(v)
	if len(nbrs) < 2 {
		return 0
	}
	links := 0
	for i, u := range nbrs {
		for _, w := range nbrs[i+1:] {
			if g.HasEdge(u, w) {
				links++
			}
		}
	}
	pairs := len(nbrs) * (len(nbrs) - 1) / 2
	return float64(links) / float64(pairs)
}

// AvgClustering returns the mean local clustering coefficient over all
// nodes (the Watts–Strogatz network average; 0 for an empty graph).
func (g *Graph) AvgClustering() float64 {
	nodes := g.nodeCache()
	if len(nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range nodes {
		sum += g.LocalClustering(v)
	}
	return sum / float64(len(nodes))
}

// MaxDegree returns the largest degree in the graph (0 for an empty one).
func (g *Graph) MaxDegree() int {
	most := 0
	g.adj.Each(func(_ NodeID, nbrs []NodeID) { most = max(most, len(nbrs)) })
	return most
}
