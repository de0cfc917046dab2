package topology

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refRandomK is RandomK as it was before pick reused a scratch buffer
// and shuffled a slice in place: a fresh candidate slice from a fresh
// Nodes copy on every call, filtered element by element, and shuffled
// through a swap closure whose indices come from a software 128-bit
// multiply. It is the reference the overlay must match change for
// change.
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
	refShuffle(rk.r, len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	return candidates[:k]
}

// refShuffle is the descending Fisher–Yates the overlay's draws were
// first defined by: step i swaps i with a Lemire-bounded draw in [0, i].
func refShuffle(r *rng.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		un := uint64(i + 1)
		for {
			hi, lo := refMul64(r.Uint64(), un)
			if lo >= un || lo >= -un%un {
				swap(i, int(hi))
				break
			}
		}
	}
}

// refMul64 returns the 128-bit product of x and y as (hi, lo), by 32-bit
// halves.
func refMul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
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
// The first phase starts 50 overlays empty; the second starts four from
// 4 000 founders, where every join shuffles thousands of candidates.
func TestRandomKMatchesReference(t *testing.T) {
	repairs := 0
	for seed := uint64(1); seed <= 50; seed++ {
		repairs += matchRandomK(t, seed, 1+int(seed%4), 0, 500)
	}
	if repairs == 0 {
		t.Fatal("no orphan repair happened: the comparison never reached RemoveNode's pick")
	}
	repairs = 0
	for seed := uint64(1); seed <= 2; seed++ {
		for _, k := range []int{1, 4} {
			repairs += matchRandomK(t, seed, k, 4000, 300)
		}
	}
	if repairs == 0 {
		t.Fatal("no orphan repair happened among 4 000 members")
	}
}

// matchRandomK joins founders fresh IDs to both overlays, then runs ops
// seeded leaves, rejoins and joins, failing on the first differing
// Change stream. It returns the number of repair edges the leaves made.
func matchRandomK(t *testing.T, seed uint64, k, founders, ops int) (repairs int) {
	t.Helper()
	got := NewRandomK(seed, k)
	ref := &refRandomK{base: newBase(), r: rng.New(seed), k: k}
	r := rng.New(seed + 1000)
	var present, departed []graph.NodeID
	next := graph.NodeID(0)
	for op := -founders; op < ops; op++ {
		var id graph.NodeID
		var a, b []Change
		switch {
		case op >= 0 && len(present) > 0 && r.Intn(5) < 2: // leave
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
		case op >= 0 && len(departed) > 0 && r.Intn(4) == 0: // rejoin of an old ID
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
			t.Fatalf("seed %d k=%d op %d (entity %d): changes %v, reference %v", seed, k, op, id, a, b)
		}
	}
	return repairs
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

// BenchmarkRandomKJoinLeave4000 is the random-k kernel at the size
// judged-stream runs: among 4 000 members, the oldest leaves and a fresh
// entity joins, so each op is one full-list pick plus a leave.
func BenchmarkRandomKJoinLeave4000(b *testing.B) {
	const n = 4000
	rk := NewRandomK(1, 4)
	for id := graph.NodeID(1); id <= n; id++ {
		rk.AddNode(id)
	}
	next := graph.NodeID(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rk.RemoveNode(next - n + 1)
		next++
		rk.AddNode(next)
	}
}
