package topology

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// applyChanges replays reported changes onto a shadow graph, verifying the
// overlay reports exactly what it does.
func shadowCheck(t *testing.T, ov Overlay, ops func(record func([]Change))) {
	t.Helper()
	shadow := graph.New()
	nodes := map[graph.NodeID]bool{}
	record := func(chs []Change) {
		for _, c := range chs {
			if c.Up {
				shadow.AddEdge(c.U, c.V)
			} else {
				shadow.RemoveEdge(c.U, c.V)
			}
		}
	}
	_ = nodes
	ops(record)
	got := ov.Graph()
	for _, v := range got.Nodes() {
		for _, u := range got.Neighbors(v) {
			if !shadow.HasEdge(v, u) {
				t.Fatalf("%s: edge %d-%d present but never reported Up", ov.Name(), v, u)
			}
		}
	}
	for _, v := range shadow.Nodes() {
		for _, u := range shadow.Neighbors(v) {
			if !got.HasEdge(v, u) {
				t.Fatalf("%s: edge %d-%d reported Up but absent", ov.Name(), v, u)
			}
		}
	}
}

func churnScript(ov Overlay, record func([]Change)) {
	// Join 1..10, remove a few, join more — a generic churn script.
	for i := 1; i <= 10; i++ {
		record(ov.AddNode(graph.NodeID(i)))
	}
	for _, v := range []graph.NodeID{3, 7, 1} {
		record(ov.RemoveNode(v))
	}
	for i := 11; i <= 15; i++ {
		record(ov.AddNode(graph.NodeID(i)))
	}
	record(ov.RemoveNode(12))
}

func overlays() []Overlay {
	return []Overlay{NewMesh(), NewStar(), NewRing(42), NewRandomK(42, 3), NewGrowingPath(), NewFragile(42)}
}

func TestFragileNeverRepairs(t *testing.T) {
	f := NewFragile(9)
	for i := 1; i <= 12; i++ {
		ch := f.AddNode(graph.NodeID(i))
		if i == 1 && len(ch) != 0 {
			t.Fatalf("first joiner got edges: %v", ch)
		}
		if i > 1 && len(ch) != 1 {
			t.Fatalf("joiner %d got %d edges, want 1", i, len(ch))
		}
	}
	if !f.Graph().Connected() {
		t.Fatal("join-only fragile graph should be a connected tree")
	}
	if f.Graph().NumEdges() != 11 {
		t.Fatalf("tree on 12 nodes has %d edges", f.Graph().NumEdges())
	}
	// Removing an interior node must only drop edges, never add any.
	for _, v := range f.Graph().Nodes() {
		if f.Graph().Degree(v) >= 2 {
			ch := f.RemoveNode(v)
			for _, c := range ch {
				if c.Up {
					t.Fatalf("fragile overlay repaired: %v", c)
				}
			}
			if f.Graph().Connected() {
				t.Fatal("removing an interior tree node should partition a fragile overlay")
			}
			return
		}
	}
	t.Fatal("no interior node found in a 12-node tree")
}

func TestChangesMatchGraph(t *testing.T) {
	for _, ov := range overlays() {
		ov := ov
		t.Run(ov.Name(), func(t *testing.T) {
			shadowCheck(t, ov, func(record func([]Change)) { churnScript(ov, record) })
		})
	}
}

func TestMeshComplete(t *testing.T) {
	m := NewMesh()
	churnScript(m, func([]Change) {})
	g := m.Graph()
	n := g.NumNodes()
	if g.NumEdges() != n*(n-1)/2 {
		t.Fatalf("mesh not complete: %d nodes, %d edges", n, g.NumEdges())
	}
}

func TestStarDiameterAtMostTwo(t *testing.T) {
	s := NewStar()
	record := func([]Change) {}
	for i := 1; i <= 20; i++ {
		record(s.AddNode(graph.NodeID(i)))
		if d, ok := s.Graph().Diameter(); !ok || d > 2 {
			t.Fatalf("star diameter %d (ok=%v) after join %d", d, ok, i)
		}
	}
	// Kill the hub repeatedly; a successor must be promoted each time.
	for _, hub := range []graph.NodeID{1, 2, 3} {
		record(s.RemoveNode(hub))
		if d, ok := s.Graph().Diameter(); !ok || d > 2 {
			t.Fatalf("star diameter %d (ok=%v) after hub %d left", d, ok, hub)
		}
	}
}

func TestStarSingletonAndPair(t *testing.T) {
	s := NewStar()
	s.AddNode(1)
	if ch := s.RemoveNode(1); len(ch) != 0 {
		t.Fatalf("removing singleton reported %v", ch)
	}
	s.AddNode(2)
	s.AddNode(3)
	if !s.Graph().HasEdge(2, 3) {
		t.Fatal("pair not connected")
	}
}

func TestRingAlwaysConnectedDegreeTwo(t *testing.T) {
	rg := NewRing(7)
	r := rng.New(99)
	present := []graph.NodeID{}
	next := graph.NodeID(0)
	for step := 0; step < 300; step++ {
		if len(present) < 3 || r.Bool(0.6) {
			next++
			rg.AddNode(next)
			present = append(present, next)
		} else {
			i := r.Intn(len(present))
			rg.RemoveNode(present[i])
			present = append(present[:i], present[i+1:]...)
		}
		g := rg.Graph()
		if !g.Connected() {
			t.Fatalf("ring disconnected at step %d with %d members", step, len(present))
		}
		if n := g.NumNodes(); n >= 3 {
			for _, v := range g.Nodes() {
				if d := g.Degree(v); d != 2 {
					t.Fatalf("ring degree %d at node %d (n=%d, step %d)", d, v, n, step)
				}
			}
		}
	}
}

func TestRingRemoveUnknownNode(t *testing.T) {
	rg := NewRing(1)
	rg.AddNode(1)
	if ch := rg.RemoveNode(99); ch != nil {
		t.Fatalf("removing unknown node reported %v", ch)
	}
}

func TestRandomKDegreesBounded(t *testing.T) {
	rk := NewRandomK(5, 3)
	for i := 1; i <= 50; i++ {
		ch := rk.AddNode(graph.NodeID(i))
		if len(ch) > 3 {
			t.Fatalf("join added %d edges, want <= 3", len(ch))
		}
	}
	if !rk.Graph().Connected() {
		// k=3 random attachment yields a connected graph when built by
		// pure joins (each joiner attaches to the existing component).
		t.Fatal("join-only random-k graph should be connected")
	}
}

func TestRandomKNoIsolatedAfterLeave(t *testing.T) {
	rk := NewRandomK(6, 2)
	for i := 1; i <= 30; i++ {
		rk.AddNode(graph.NodeID(i))
	}
	r := rng.New(3)
	nodes := rk.Graph().Nodes()
	rng.ShuffleSlice(r, nodes)
	for _, v := range nodes[:15] {
		rk.RemoveNode(v)
		g := rk.Graph()
		if g.NumNodes() < 2 {
			continue
		}
		for _, u := range g.Nodes() {
			if g.Degree(u) == 0 {
				t.Fatalf("node %d isolated after removal of %d", u, v)
			}
		}
	}
}

func TestRandomKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandomK(seed, 0) did not panic")
		}
	}()
	NewRandomK(1, 0)
}

func TestGrowingPathDiameterGrows(t *testing.T) {
	gp := NewGrowingPath()
	for i := 1; i <= 30; i++ {
		gp.AddNode(graph.NodeID(i))
	}
	d, ok := gp.Graph().Diameter()
	if !ok || d != 29 {
		t.Fatalf("growing path diameter = %d (ok=%v), want 29", d, ok)
	}
}

func TestGrowingPathBridgesOnLeave(t *testing.T) {
	gp := NewGrowingPath()
	for i := 1; i <= 5; i++ {
		gp.AddNode(graph.NodeID(i))
	}
	gp.RemoveNode(3)
	g := gp.Graph()
	if !g.Connected() {
		t.Fatal("path disconnected after interior leave")
	}
	if !g.HasEdge(2, 4) {
		t.Fatal("bridge edge 2-4 missing")
	}
	// Tail leave needs no bridge.
	gp.RemoveNode(5)
	if !gp.Graph().Connected() {
		t.Fatal("path disconnected after tail leave")
	}
	// New joiner attaches to the new tail (4).
	gp.AddNode(6)
	if !gp.Graph().HasEdge(4, 6) {
		t.Fatal("joiner did not attach to tail")
	}
}

func TestBuildRing(t *testing.T) {
	g := BuildRing(8)
	if d, ok := g.Diameter(); !ok || d != 4 {
		t.Fatalf("BuildRing(8) diameter = %d, %v", d, ok)
	}
	if g.NumEdges() != 8 {
		t.Fatalf("BuildRing(8) has %d edges", g.NumEdges())
	}
	if BuildRing(1).NumEdges() != 0 {
		t.Fatal("BuildRing(1) should have no edges")
	}
}

func TestOverlayNames(t *testing.T) {
	seen := map[string]bool{}
	for _, ov := range overlays() {
		n := ov.Name()
		if n == "" || seen[n] {
			t.Errorf("bad or duplicate overlay name %q", n)
		}
		seen[n] = true
	}
}

func TestChangeString(t *testing.T) {
	up := Change{Up: true, U: 1, V: 2}
	down := Change{Up: false, U: 1, V: 2}
	if up.String() == down.String() {
		t.Error("up and down changes render identically")
	}
}
