package graph

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// The map-BFS geography queries the dense kernel replaced, kept verbatim
// (as functions of the graph) as the reference it must agree with.

func refConnected(g *Graph) bool {
	if g.adj.Len() <= 1 {
		return true
	}
	src := g.Nodes()[0]
	return len(g.BFS(src)) == g.adj.Len()
}

func refEccentricity(g *Graph, v NodeID) (int, bool) {
	dist := g.BFS(v)
	if len(dist) != g.adj.Len() || len(dist) == 0 {
		return 0, false
	}
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc, true
}

func refDiameter(g *Graph) (int, bool) {
	if g.adj.Len() == 0 {
		return 0, false
	}
	diam := 0
	for _, v := range g.Nodes() {
		ecc, ok := refEccentricity(g, v)
		if !ok {
			return 0, false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, true
}

// edit applies one step of an edit script: op picks the kind of change,
// a and b the ids it touches, present or absent (b only for edge steps).
func edit(g *Graph, op, a, b int) {
	switch op % 8 {
	case 0:
		g.AddNode(NodeID(a))
	case 1:
		g.RemoveNode(NodeID(a))
	case 2, 3, 4, 5, 6:
		if a != b {
			g.AddEdge(NodeID(a), NodeID(b))
		}
	case 7:
		g.RemoveEdge(NodeID(a), NodeID(b))
	}
}

// agreeWithReference requires Diameter, DiameterAbove at floors around the
// reference diameter, Connected and every node's Eccentricity (and the
// absent id's) to equal the map-BFS reference on g.
func agreeWithReference(t *testing.T, where string, g *Graph, absent NodeID) {
	t.Helper()
	wantD, wantOK := refDiameter(g)
	if gotD, gotOK := g.Diameter(); gotD != wantD || gotOK != wantOK {
		t.Fatalf("%s: Diameter = %d,%v, want %d,%v", where, gotD, gotOK, wantD, wantOK)
	}
	for _, floor := range []int{0, wantD - 1, wantD, wantD + 1, wantD + 5} {
		want := 0
		if wantOK {
			want = max(floor, wantD)
		}
		if got, gotOK := g.DiameterAbove(floor); got != want || gotOK != wantOK {
			t.Fatalf("%s: DiameterAbove(%d) = %d,%v, want %d,%v", where, floor, got, gotOK, want, wantOK)
		}
	}
	if got, want := g.Connected(), refConnected(g); got != want {
		t.Fatalf("%s: Connected = %v, want %v", where, got, want)
	}
	for _, v := range append(g.Nodes(), absent) {
		gotE, gotOK := g.Eccentricity(v)
		if wantE, wantOK := refEccentricity(g, v); gotE != wantE || gotOK != wantOK {
			t.Fatalf("%s: Eccentricity(%d) = %d,%v, want %d,%v", where, v, gotE, gotOK, wantE, wantOK)
		}
	}
}

// TestDenseKernelMatchesReference drives seeded random node and edge
// changes over at most 40 ids — through empty, singleton, disconnected,
// complete and shrinking graphs, the last being where a scratch view sized
// by an earlier, larger call could leak stale entries — and holds the
// kernel to the reference after every step.
func TestDenseKernelMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		// 2..40 ids: small ranges fill up to complete graphs, large ones
		// stay sparse and mostly disconnected.
		ids := 2 + int(seed%39)
		g := New()
		for step := 0; step < 200; step++ {
			op, a, b := r.Intn(8), r.Intn(ids), 0
			if op >= 2 {
				b = r.Intn(ids)
			}
			edit(g, op, a, b)
			agreeWithReference(t, fmt.Sprintf("seed %d step %d", seed, step), g, NodeID(ids))
		}
	}
}

// FuzzDiameterBounds runs a byte-driven edit script — three bytes a step:
// the kind of change and the two ids, over at most 40 ids — and holds the
// kernel, its floor query included, to the reference after every step.
func FuzzDiameterBounds(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 3, 0})          // a 4-ring
	f.Add([]byte{2, 0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 1, 0, 0}) // a star losing its hub
	f.Add([]byte{2, 0, 1, 2, 2, 3, 0, 9, 9, 7, 0, 1})          // two parts, a loner
	f.Fuzz(func(t *testing.T, script []byte) {
		const ids = 40
		g := New()
		for i := 0; i+2 < len(script); i += 3 {
			edit(g, int(script[i]), int(script[i+1])%ids, int(script[i+2])%ids)
			agreeWithReference(t, fmt.Sprintf("step %d", i/3), g, ids)
		}
	})
}

// star returns the n-node star with hub 0.
func star(n int) *Graph {
	g := New()
	g.AddNode(0)
	for i := 1; i < n; i++ {
		g.AddEdge(0, NodeID(i))
	}
	return g
}

// randomK returns an n-node graph grown the way the random-k overlay grows
// one: each node joins linked to k distinct earlier nodes (all of them
// while there are fewer), so it is connected.
func randomK(n, k int, seed uint64) *Graph {
	r := rng.New(seed)
	g := New()
	g.AddNode(0)
	for v := 1; v < n; v++ {
		for g.Degree(NodeID(v)) < min(k, v) {
			g.AddEdge(NodeID(v), NodeID(r.Intn(v)))
		}
	}
	return g
}

// TestDiameterAllocs pins the kernel's cost model: once its view is sized,
// a diameter — with or without a floor — allocates nothing.
func TestDiameterAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"64-ring", ring(64)}, {"64-star", star(64)}, {"64-node random-k(3)", randomK(64, 3, 1)}} {
		c.g.Diameter()
		if allocs := testing.AllocsPerRun(20, func() { c.g.Diameter() }); allocs != 0 {
			t.Errorf("Diameter on a warm %s: %.1f allocs, want 0", c.name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.g.DiameterAbove(3) }); allocs != 0 {
			t.Errorf("DiameterAbove on a warm %s: %.1f allocs, want 0", c.name, allocs)
		}
	}
}

// TestDiameterPruning pins how many BFS runs the eccentricity bounds
// spare. A star needs two: the hub's run bounds every leaf by 2, and one
// leaf's run reaches 2. On random-k(3) graphs the saving depends on the
// draw (5 to 44 runs of 64 over the seeds below, 222 in all), so it is
// pinned over all of them: at most half the all-pairs count. A cycle is
// vertex-transitive — every bound ecc(u)+dist exceeds the diameter — so
// it still takes n runs, exactly; only a floor of twice its radius stops
// it after the first.
func TestDiameterPruning(t *testing.T) {
	runs := func(g *Graph, floor int) (int, int) {
		before := g.dense.runs
		d, ok := g.DiameterAbove(floor)
		if !ok {
			t.Fatalf("DiameterAbove(%d) reported a connected graph disconnected", floor)
		}
		return d, g.dense.runs - before
	}
	if d, n := runs(star(64), 0); d != 2 || n > 2 {
		t.Errorf("64-star: diameter %d in %d BFS runs, want 2 in at most 2", d, n)
	}
	total := 0
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomK(64, 3, seed)
		want, _ := refDiameter(g)
		d, n := runs(g, 0)
		if d != want {
			t.Errorf("64-node random-k(3) seed %d: diameter %d, want %d", seed, d, want)
		}
		total += n
	}
	if total > 8*64/2 {
		t.Errorf("64-node random-k(3), 8 seeds: %d BFS runs, want at most %d", total, 8*64/2)
	}
	if d, n := runs(ring(64), 0); d != 32 || n != 64 {
		t.Errorf("64-ring: diameter %d in %d BFS runs, want 32 in 64", d, n)
	}
	if d, n := runs(ring(64), 64); d != 64 || n != 1 {
		t.Errorf("64-ring above 64: %d in %d BFS runs, want 64 in 1", d, n)
	}
}
