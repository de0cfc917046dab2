package topology

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// FingerRing is a structured overlay in the spirit of Chord: members are
// hashed onto a circular identifier space, each keeps its ring successor
// plus "finger" links to the first member at hash-space distance 2^k for
// every k. The graph's diameter is O(log n) with high probability, and —
// unlike the plain ring — the bound is *computable from a membership
// bound*: a system that caps concurrency at b gets diameter
// <= 2*ceil(log2 b) at all times. Structured overlays are how real
// dynamic systems buy themselves back into the known-diameter class the
// paper shows the One-Time Query needs.
//
// Fingers are anchored in hash space, so a membership change only
// rewires the O(log n) fingers that now resolve differently — in-flight
// protocols keep most of their paths. Maintenance is idealized and
// immediate (the overlay recomputes the ideal finger set after every
// membership change and applies the difference); the cost of lazy
// stabilization is not modeled.
type FingerRing struct {
	base
	members []graph.NodeID // sorted by hash position
}

// NewFingerRing returns an empty finger-ring overlay.
func NewFingerRing() *FingerRing { return &FingerRing{base: newBase()} }

// Name implements Overlay.
func (*FingerRing) Name() string { return "finger-ring" }

// HashPos hashes an identifier onto the circular space (splitmix64 mix).
// It is the position function shared by the finger-ring overlay and the
// greedy key-lookup protocol (internal/lookup).
func HashPos(id graph.NodeID) uint64 {
	return rng.Mix64(uint64(id) + 0x9e3779b97f4a7c15)
}

func (fr *FingerRing) less(a, b graph.NodeID) bool {
	pa, pb := HashPos(a), HashPos(b)
	if pa != pb {
		return pa < pb
	}
	return a < b // hash ties broken by ID (IDs are unique)
}

// successorOf returns the first member at or clockwise after target.
func (fr *FingerRing) successorOf(target uint64) graph.NodeID {
	i := sort.Search(len(fr.members), func(i int) bool {
		return HashPos(fr.members[i]) >= target
	})
	if i == len(fr.members) {
		i = 0 // wrap around
	}
	return fr.members[i]
}

// desiredEdges returns the ideal edge set over the current membership:
// each member links to its ring successor and to the successor of every
// point at hash-space distance 2^k from it.
func (fr *FingerRing) desiredEdges() map[[2]graph.NodeID]bool {
	edges := make(map[[2]graph.NodeID]bool)
	n := len(fr.members)
	if n < 2 {
		return edges
	}
	add := func(u, v graph.NodeID) {
		if u == v {
			return
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		edges[[2]graph.NodeID{a, b}] = true
	}
	for i, u := range fr.members {
		add(u, fr.members[(i+1)%n]) // ring successor
		for k := uint(0); k < 64; k++ {
			add(u, fr.successorOf(HashPos(u)+1<<k))
		}
	}
	return edges
}

// reconcile diffs the current graph against the ideal edge set and
// returns the changes applied.
func (fr *FingerRing) reconcile() []Change {
	want := fr.desiredEdges()
	var ch []Change
	// Remove edges that should no longer exist.
	for _, u := range fr.g.Nodes() {
		for _, v := range fr.g.Neighbors(u) {
			if u > v {
				continue // visit each edge once
			}
			if !want[[2]graph.NodeID{u, v}] {
				fr.g.RemoveEdge(u, v)
				ch = append(ch, Change{Up: false, U: u, V: v})
			}
		}
	}
	// Add the missing ideal edges, deterministically ordered.
	keys := make([][2]graph.NodeID, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if !fr.g.HasEdge(k[0], k[1]) {
			ch = fr.addEdge(ch, k[0], k[1])
		}
	}
	return ch
}

// AddNode splices p into the hash ring and reconciles fingers.
func (fr *FingerRing) AddNode(p graph.NodeID) []Change {
	fr.g.AddNode(p)
	i := sort.Search(len(fr.members), func(i int) bool { return !fr.less(fr.members[i], p) })
	fr.members = append(fr.members, 0)
	copy(fr.members[i+1:], fr.members[i:])
	fr.members[i] = p
	return fr.reconcile()
}

// RemoveNode drops p and reconciles fingers.
func (fr *FingerRing) RemoveNode(p graph.NodeID) []Change {
	i := sort.Search(len(fr.members), func(i int) bool { return !fr.less(fr.members[i], p) })
	if i < len(fr.members) && fr.members[i] == p {
		fr.members = append(fr.members[:i], fr.members[i+1:]...)
	}
	ch := fr.dropNode(nil, p)
	return append(ch, fr.reconcile()...)
}

// FingerDiameterBound returns the structured overlay's diameter bound for
// a membership of at most b: 2*ceil(log2 b) (and at least 1). Protocols
// in an M^b class use it as the known TTL.
func FingerDiameterBound(b int) int {
	if b <= 2 {
		return 1
	}
	return 2 * int(math.Ceil(math.Log2(float64(b))))
}

// BuildFingerRing returns the static finger-ring graph on n nodes with
// IDs 1..n (for diameter-vs-n measurements).
func BuildFingerRing(n int) *graph.Graph {
	fr := NewFingerRing()
	for i := 1; i <= n; i++ {
		fr.AddNode(graph.NodeID(i))
	}
	return fr.Graph().Clone()
}
