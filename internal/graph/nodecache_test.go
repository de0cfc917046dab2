package graph

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// sortedKeys is the node set computed from scratch, independent of the
// cache: the adjacency table's keys, ascending.
func sortedKeys(g *Graph) []NodeID {
	out := make([]NodeID, 0, g.adj.Len())
	g.adj.Each(func(v NodeID, _ []NodeID) { out = append(out, v) })
	slices.Sort(out)
	return out
}

// without is want minus x, computed without the cache.
func without(want []NodeID, x NodeID) []NodeID {
	return slices.DeleteFunc(slices.Clone(want), func(v NodeID) bool { return v == x })
}

// TestNodeCacheMatchesSortedKeys drives seeded random membership changes
// through graphs whose ascending-node cache is maintained in place, and
// requires every Nodes / AppendNodes / AppendNodesExcept call to equal
// the sorted key set (minus the excepted node). AppendNodesExcept runs
// first after each change, so it also meets the cache invalid (a fresh
// graph, a clone) and the graph empty.
func TestNodeCacheMatchesSortedKeys(t *testing.T) {
	exceptCold, exceptEmpty := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		g := New()
		// Identities are non-negative, so the descending arm counts
		// down from mid to 1 and the other draws lie in [mid, mid+80).
		const mid = 400
		small := func(k int) NodeID { return mid + NodeID(r.Intn(k)) }
		next := NodeID(1000)
		for step := 0; step < mid; step++ {
			switch r.Intn(9) {
			case 0: // ascending: a fresh ID above every one so far
				next++
				g.AddNode(next)
			case 1: // descending: below every one so far
				g.AddNode(NodeID(mid - step))
			case 2: // anywhere, often a duplicate
				g.AddNode(small(64))
			case 3, 4: // present or absent
				g.RemoveNode(small(64))
			case 5:
				if u, v := small(64), small(80); u != v {
					g.AddEdge(u, v)
				}
			case 6:
				if g.adj.Len() > 0 {
					ids := sortedKeys(g)
					g.RemoveNode(ids[r.Intn(len(ids))])
				}
			case 7:
				g = g.Clone()
			case 8:
				g.RemoveEdge(small(64), small(80))
			}
			want := sortedKeys(g)
			// x: absent below every node, absent above, a random ID
			// (present or absent), and the first and last nodes.
			xs := []NodeID{0, MaxNodeID, small(80)}
			if len(want) > 0 {
				xs = append(xs, want[0], want[len(want)-1])
			} else {
				exceptEmpty++
			}
			if !g.sortedValid {
				exceptCold++
			}
			for _, x := range xs {
				if app := g.AppendNodesExcept([]NodeID{7, 8}, x); !slices.Equal(app[:2], []NodeID{7, 8}) ||
					!slices.Equal(app[2:], without(want, x)) {
					t.Fatalf("seed %d step %d: AppendNodesExcept(x=%d) = %v, want [7 8] + %v",
						seed, step, x, app, without(want, x))
				}
				if app := g.AppendNodesExcept(nil, x); !slices.Equal(app, without(want, x)) {
					t.Fatalf("seed %d step %d: AppendNodesExcept(nil, x=%d) = %v, want %v",
						seed, step, x, app, without(want, x))
				}
			}
			got := g.Nodes()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Nodes = %v, want %v", seed, step, got, want)
			}
			if len(got) > 0 {
				got[0] = MaxNodeID // the caller owns it: the cache must not see this
			}
			app := g.AppendNodes([]NodeID{7, 8})
			if !slices.Equal(app[:2], []NodeID{7, 8}) || !slices.Equal(app[2:], want) {
				t.Fatalf("seed %d step %d: AppendNodes = %v, want [7 8] + %v", seed, step, app, want)
			}
			if again := g.Nodes(); !slices.Equal(again, want) {
				t.Fatalf("seed %d step %d: Nodes after mutating a result = %v, want %v", seed, step, again, want)
			}
		}
	}
	if exceptCold == 0 || exceptEmpty == 0 {
		t.Errorf("AppendNodesExcept met an invalid cache %d times and an empty graph %d times; want both > 0",
			exceptCold, exceptEmpty)
	}
}

// TestNodeCacheSurvivesMembershipChanges pins the cost model: once built,
// the cache is maintained by insert/delete rather than rebuilt, so reading
// it after a change allocates only the caller's copy.
func TestNodeCacheSurvivesMembershipChanges(t *testing.T) {
	g := New()
	for v := NodeID(0); v < 4000; v += 2 {
		g.AddNode(v)
	}
	buf := g.AppendNodes(nil)
	v := NodeID(1)
	allocs := testing.AllocsPerRun(200, func() {
		g.RemoveNode(v - 1)
		g.AddNode(v - 1)
		buf = g.AppendNodes(buf[:0])
		v += 2
	})
	if !g.sortedValid {
		t.Fatal("a membership change dropped the node cache")
	}
	if allocs > 1 {
		t.Errorf("remove + add + AppendNodes into a reused buffer: %.1f allocs, want <= 1 (the new node's adjacency map)", allocs)
	}
}
