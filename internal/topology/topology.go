// Package topology maintains the evolving communication graph G(t) of a
// dynamic system: which entities are neighbors, and how the overlay reacts
// when entities join or leave. It realizes the geography dimension of the
// paper's classification.
//
// An Overlay owns a graph and mutates it on membership changes, reporting
// every edge change so the simulation driver can record it in the run
// trace. The implementations span the geography classes:
//
//   - Mesh: complete graph — the classical "everybody knows everybody"
//     assumption (GeoComplete).
//   - Star: all members attach to a hub (re-elected on hub departure) —
//     always connected with diameter <= 2 (GeoDiameterKnown).
//   - Ring: members form a cycle repaired on leave — always connected,
//     diameter grows with membership (GeoDiameterBounded per run).
//   - RandomK: each joiner picks k random neighbors — the typical
//     unstructured P2P overlay; connectivity is probabilistic only
//     (GeoUnconstrained).
//   - GrowingPath: each joiner attaches to the previous one — the
//     adversarial geography whose diameter grows without bound.
package topology

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Change is one edge flip: Up reports whether edge {U, V} appeared.
type Change struct {
	Up   bool
	U, V graph.NodeID
}

func (c Change) String() string {
	dir := "down"
	if c.Up {
		dir = "up"
	}
	return fmt.Sprintf("edge %d-%d %s", c.U, c.V, dir)
}

// Overlay maintains the communication graph across membership changes.
// Implementations are deterministic given their seed.
type Overlay interface {
	// AddNode brings a new entity into the overlay and returns the edge
	// changes performed (all Up).
	AddNode(p graph.NodeID) []Change
	// RemoveNode takes an entity out and returns the edge changes: the
	// implicit removal of its incident edges (Down) followed by any
	// repair edges (Up).
	RemoveNode(p graph.NodeID) []Change
	// Graph returns the current communication graph. Callers must not
	// mutate it.
	Graph() *graph.Graph
	// Name identifies the overlay in experiment output.
	Name() string
}

// base carries the graph bookkeeping shared by all overlays.
type base struct {
	g *graph.Graph
}

func newBase() base { return base{g: graph.New()} }

func (b *base) Graph() *graph.Graph { return b.g }

// addEdge inserts the edge and appends the change.
func (b *base) addEdge(changes []Change, u, v graph.NodeID) []Change {
	if u == v || b.g.HasEdge(u, v) {
		return changes
	}
	b.g.AddEdge(u, v)
	return append(changes, Change{Up: true, U: u, V: v})
}

// dropNode removes p, appending a Down change per lost edge.
func (b *base) dropNode(changes []Change, p graph.NodeID) []Change {
	for _, u := range b.g.Neighbors(p) {
		changes = append(changes, Change{Up: false, U: p, V: u})
	}
	b.g.RemoveNode(p)
	return changes
}

// Mesh is the complete-graph overlay.
type Mesh struct{ base }

// NewMesh returns an empty complete-graph overlay.
func NewMesh() *Mesh { return &Mesh{base: newBase()} }

// Name implements Overlay.
func (*Mesh) Name() string { return "mesh" }

// AddNode connects p to every present entity.
func (m *Mesh) AddNode(p graph.NodeID) []Change {
	others := m.g.Nodes()
	m.g.AddNode(p)
	var ch []Change
	for _, u := range others {
		ch = m.addEdge(ch, p, u)
	}
	return ch
}

// RemoveNode drops p; a complete graph needs no repair.
func (m *Mesh) RemoveNode(p graph.NodeID) []Change {
	return m.dropNode(nil, p)
}

// Star attaches every member to a hub. When the hub leaves, the
// longest-present member is promoted and everyone re-attaches, keeping
// the graph connected with diameter at most 2 at all times.
type Star struct {
	base
	order []graph.NodeID // members in join order; order[0] is the hub
}

// NewStar returns an empty star overlay.
func NewStar() *Star { return &Star{base: newBase()} }

// Name implements Overlay.
func (*Star) Name() string { return "star" }

// AddNode attaches p to the hub (or makes p the hub of a singleton).
func (s *Star) AddNode(p graph.NodeID) []Change {
	s.g.AddNode(p)
	s.order = append(s.order, p)
	if len(s.order) == 1 {
		return nil
	}
	return s.addEdge(nil, p, s.order[0])
}

// RemoveNode detaches p; if p was the hub, the oldest member takes over.
func (s *Star) RemoveNode(p graph.NodeID) []Change {
	wasHub := len(s.order) > 0 && s.order[0] == p
	for i, v := range s.order {
		if v == p {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	ch := s.dropNode(nil, p)
	if wasHub && len(s.order) > 1 {
		hub := s.order[0]
		for _, v := range s.order[1:] {
			ch = s.addEdge(ch, v, hub)
		}
	}
	return ch
}

// Ring keeps members on a cycle; joiners splice in next to a deterministic
// position and a leaver's neighbors are bridged, so the graph stays
// connected (diameter ~ membership/2).
type Ring struct {
	base
	r     *rng.Rand
	order []graph.NodeID // cyclic order
}

// NewRing returns an empty ring overlay; seed drives splice positions.
func NewRing(seed uint64) *Ring { return &Ring{base: newBase(), r: rng.New(seed)} }

// Name implements Overlay.
func (*Ring) Name() string { return "ring" }

func (rg *Ring) at(i int) graph.NodeID { return rg.order[(i+len(rg.order))%len(rg.order)] }

// AddNode splices p into the cycle at a random position.
func (rg *Ring) AddNode(p graph.NodeID) []Change {
	rg.g.AddNode(p)
	n := len(rg.order)
	switch n {
	case 0:
		rg.order = []graph.NodeID{p}
		return nil
	case 1:
		rg.order = append(rg.order, p)
		return rg.addEdge(nil, p, rg.order[0])
	}
	i := rg.r.Intn(n) // splice between order[i] and order[i+1]
	a, b := rg.at(i), rg.at(i+1)
	var ch []Change
	if n > 2 { // for n == 2 the "cycle" is a single double-used edge
		rg.g.RemoveEdge(a, b)
		ch = append(ch, Change{Up: false, U: a, V: b})
	}
	ch = rg.addEdge(ch, a, p)
	ch = rg.addEdge(ch, p, b)
	rest := append([]graph.NodeID{}, rg.order[i+1:]...)
	rg.order = append(append(rg.order[:i+1], p), rest...)
	return ch
}

// RemoveNode bridges p's ring neighbors.
func (rg *Ring) RemoveNode(p graph.NodeID) []Change {
	idx := -1
	for i, v := range rg.order {
		if v == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	n := len(rg.order)
	var a, b graph.NodeID
	if n > 2 {
		a, b = rg.at(idx-1), rg.at(idx+1)
	}
	rg.order = append(rg.order[:idx], rg.order[idx+1:]...)
	ch := rg.dropNode(nil, p)
	if n > 2 {
		ch = rg.addEdge(ch, a, b)
	}
	return ch
}

// RandomK is an unstructured overlay: each joiner connects to up to K
// random members. A leaver's neighbors that end up isolated re-attach to
// a random member, but global connectivity is probabilistic only — this
// is the overlay whose runs fall in the unconstrained geography class.
type RandomK struct {
	base
	r *rng.Rand
	k int
	// buf is pick's candidate scratch, reused so that a join copies the
	// member list once but allocates nothing proportional to it.
	buf []graph.NodeID
}

// NewRandomK returns an empty k-random overlay. k must be positive.
func NewRandomK(seed uint64, k int) *RandomK {
	if k <= 0 {
		panic("topology: NewRandomK with non-positive k")
	}
	return &RandomK{base: newBase(), r: rng.New(seed), k: k}
}

// Name implements Overlay.
func (rk *RandomK) Name() string { return fmt.Sprintf("random-%d", rk.k) }

// pick returns up to k distinct members other than p, uniformly: the
// ascending members minus p, shuffled, first k. The result is a prefix
// of rk's scratch buffer, valid until the next pick; both callers only
// range over it before picking again.
func (rk *RandomK) pick(p graph.NodeID, k int) []graph.NodeID {
	rk.buf = rk.g.AppendNodesExcept(rk.buf[:0], p)
	if len(rk.buf) <= k {
		return rk.buf
	}
	rng.ShuffleSlice(rk.r, rk.buf)
	return rk.buf[:k]
}

// AddNode connects p to up to K random members.
func (rk *RandomK) AddNode(p graph.NodeID) []Change {
	targets := rk.pick(p, rk.k)
	rk.g.AddNode(p)
	ch := make([]Change, 0, len(targets))
	for _, u := range targets {
		ch = rk.addEdge(ch, p, u)
	}
	return ch
}

// RemoveNode drops p and re-attaches any neighbor it isolated.
func (rk *RandomK) RemoveNode(p graph.NodeID) []Change {
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

// Fragile is the no-maintenance overlay: each joiner attaches to one
// random member and a leaver's edges simply vanish — no bridging, no
// orphan rescue. Under churn the graph fragments and fragments never
// re-merge except by the luck of later arrivals; it is the bare
// "neighbors only, nobody repairs anything" end of the geography
// dimension.
type Fragile struct {
	base
	r *rng.Rand
	// buf is AddNode's reused copy of the member list.
	buf []graph.NodeID
}

// NewFragile returns an empty fragile overlay.
func NewFragile(seed uint64) *Fragile { return &Fragile{base: newBase(), r: rng.New(seed)} }

// Name implements Overlay.
func (*Fragile) Name() string { return "fragile" }

// AddNode attaches p to one random existing member (or leaves it isolated
// in an empty overlay).
func (f *Fragile) AddNode(p graph.NodeID) []Change {
	f.buf = f.g.AppendNodes(f.buf[:0])
	f.g.AddNode(p)
	if len(f.buf) == 0 {
		return nil
	}
	return f.addEdge(nil, p, f.buf[f.r.Intn(len(f.buf))])
}

// RemoveNode drops p and its edges; nothing is repaired.
func (f *Fragile) RemoveNode(p graph.NodeID) []Change {
	return f.dropNode(nil, p)
}

// GrowingPath chains each joiner to the most recent member still present:
// the adversarial geography in which the diameter grows without bound as
// entities keep arriving. Leavers bridge their path neighbors.
type GrowingPath struct {
	base
	order []graph.NodeID // path order, head to tail
}

// NewGrowingPath returns an empty growing-path overlay.
func NewGrowingPath() *GrowingPath { return &GrowingPath{base: newBase()} }

// Name implements Overlay.
func (*GrowingPath) Name() string { return "growing-path" }

// AddNode appends p at the tail.
func (gp *GrowingPath) AddNode(p graph.NodeID) []Change {
	gp.g.AddNode(p)
	gp.order = append(gp.order, p)
	if len(gp.order) == 1 {
		return nil
	}
	return gp.addEdge(nil, gp.order[len(gp.order)-2], p)
}

// RemoveNode bridges p's path neighbors.
func (gp *GrowingPath) RemoveNode(p graph.NodeID) []Change {
	idx := -1
	for i, v := range gp.order {
		if v == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	var a, b graph.NodeID
	bridge := idx > 0 && idx < len(gp.order)-1
	if bridge {
		a, b = gp.order[idx-1], gp.order[idx+1]
	}
	gp.order = append(gp.order[:idx], gp.order[idx+1:]...)
	ch := gp.dropNode(nil, p)
	if bridge {
		ch = gp.addEdge(ch, a, b)
	}
	return ch
}
