package topology

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refRandomK is RandomK as it was before pick reused a scratch buffer:
// a fresh candidate slice from a fresh Nodes copy on every call. It is
// the reference the buffered overlay must match change for change.
type refRandomK struct {
	base
	r *rng.Rand
	k int
}

func (rk *refRandomK) pick(p graph.NodeID, k int) []graph.NodeID {
	candidates := make([]graph.NodeID, 0, rk.g.NumNodes())
	for _, v := range rk.g.Nodes() {
		if v != p {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) <= k {
		return candidates
	}
	rk.r.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:k]
}

func (rk *refRandomK) AddNode(p graph.NodeID) []Change {
	targets := rk.pick(p, rk.k)
	rk.g.AddNode(p)
	var ch []Change
	for _, u := range targets {
		ch = rk.addEdge(ch, p, u)
	}
	return ch
}

func (rk *refRandomK) RemoveNode(p graph.NodeID) []Change {
	orphanCandidates := rk.g.Neighbors(p)
	ch := rk.dropNode(nil, p)
	for _, u := range orphanCandidates {
		if rk.g.HasNode(u) && rk.g.Degree(u) == 0 && rk.g.NumNodes() > 1 {
			for _, v := range rk.pick(u, 1) {
				ch = rk.addEdge(ch, u, v)
			}
		}
	}
	return ch
}

// TestRandomKMatchesReference drives RandomK and the reference through
// the same seeded joins, leaves and rejoins of old IDs; both must emit
// identical Change streams (same rng draws, same targets, same repairs).
func TestRandomKMatchesReference(t *testing.T) {
	repairs := 0
	for seed := uint64(1); seed <= 50; seed++ {
		k := 1 + int(seed%4)
		got := NewRandomK(seed, k)
		ref := &refRandomK{base: newBase(), r: rng.New(seed), k: k}
		r := rng.New(seed + 1000)
		var present, departed []graph.NodeID
		next := graph.NodeID(0)
		for op := 0; op < 500; op++ {
			var id graph.NodeID
			var a, b []Change
			switch {
			case len(present) > 0 && r.Intn(5) < 2: // leave
				i := r.Intn(len(present))
				id = present[i]
				present = append(present[:i], present[i+1:]...)
				departed = append(departed, id)
				a, b = got.RemoveNode(id), ref.RemoveNode(id)
				for _, c := range b {
					if c.Up {
						repairs++
					}
				}
			case len(departed) > 0 && r.Intn(4) == 0: // rejoin of an old ID
				i := r.Intn(len(departed))
				id = departed[i]
				departed = append(departed[:i], departed[i+1:]...)
				present = append(present, id)
				a, b = got.AddNode(id), ref.AddNode(id)
			default: // fresh join
				next++
				id = next
				present = append(present, id)
				a, b = got.AddNode(id), ref.AddNode(id)
			}
			if len(a) != len(b) || (len(a) > 0 && !reflect.DeepEqual(a, b)) {
				t.Fatalf("seed %d op %d (entity %d): changes %v, reference %v", seed, op, id, a, b)
			}
		}
	}
	if repairs == 0 {
		t.Fatal("no orphan repair happened: the comparison never reached RemoveNode's pick")
	}
}

// TestRandomKJoinAllocations bounds a join at n=4000: the candidate
// buffer is reused, so what is left is the picked targets, the joiner's
// adjacency and the reported changes — nothing proportional to n.
func TestRandomKJoinAllocations(t *testing.T) {
	rk := NewRandomK(1, 4)
	for id := graph.NodeID(1); id <= 4000; id++ {
		rk.AddNode(id)
	}
	next := graph.NodeID(4000)
	allocs := testing.AllocsPerRun(100, func() {
		next++
		rk.AddNode(next)
	})
	if allocs > 4 {
		t.Errorf("RandomK.AddNode at n=4000: %.1f allocs, want <= 4", allocs)
	}
}
