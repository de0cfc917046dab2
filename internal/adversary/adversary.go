// Package adversary makes the paper's impossibility arguments executable.
// An unsolvability claim is an adversary construction — "for every
// protocol there is a run of the class that defeats it" — and each
// strategy here builds such runs live, using only the powers its system
// class grants: scheduling arrivals, scheduling departures, or flipping
// links. Attach one to a world before launching a protocol and the
// experiment plays the lower-bound argument out against real code.
//
// The adversary is omniscient (it inspects the world and the ground-truth
// trace) but not omnipotent: it cannot touch protocol state, forge
// messages, or act outside its class's powers.
package adversary

import (
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
)

// FrontierGrower realizes the C3 argument against knowledge-free waves:
// it keeps the system growing so that quiescence never comes. Fresh
// entities join every Every ticks, forever; on a growing-path overlay the
// diameter grows with them and every traversal chases a receding
// frontier. Class powers used: unbounded arrivals (M^infinity).
type FrontierGrower struct {
	// Every is the join period. Default 10.
	Every sim.Time
}

// firstGrownID is the first identity FrontierGrower joins; later joins
// count up from it, clear of any entity an experiment seeds.
const firstGrownID graph.NodeID = 1 << 20

// Name identifies the strategy in experiment output.
func (*FrontierGrower) Name() string { return "frontier-grower" }

// Attach starts the adversary's activity on the world; the returned
// function stops it.
func (fg *FrontierGrower) Attach(w *node.World) func() {
	every := fg.Every
	if every <= 0 {
		every = 10
	}
	next := firstGrownID
	tk := w.Engine.Every(every, func() {
		if next < 0 { // next++ wrapped past graph.MaxNodeID
			panic("adversary: the frontier grower ran out of identities")
		}
		w.Join(next)
		next++
	})
	return tk.Stop
}

// EdgeFlipper exercises the geography dimension in isolation: membership
// never changes, but random links keep going down and coming back. On a
// cycle this never disconnects anything (a cycle minus one edge is a
// path), yet the diameter jumps between n/2 and n-1 and in-flight
// messages die with their link — dynamics that live entirely in the
// always-connected geography class. Requires an overlay with direct link
// control. Class powers used: link dynamics only.
type EdgeFlipper struct {
	// Every is the flip period. Default 20.
	Every sim.Time
	// Outage is how long a cut link stays down. Default Every/2 (min 1).
	Outage sim.Time
	// Seed drives edge choice.
	Seed uint64
}

// Name identifies the strategy in experiment output.
func (*EdgeFlipper) Name() string { return "edge-flipper" }

// Attach starts the adversary's activity on the world; the returned
// function stops it.
func (ef *EdgeFlipper) Attach(w *node.World) func() {
	every := ef.Every
	if every <= 0 {
		every = 20
	}
	outage := ef.Outage
	if outage <= 0 {
		outage = every / 2
		if outage <= 0 {
			outage = 1
		}
	}
	r := rng.New(ef.Seed ^ 0xf11b)
	down := make(map[[2]graph.NodeID]bool)
	tk := w.Engine.Every(every, func() {
		g := w.Overlay.Graph()
		// Collect candidate edges not currently flapped.
		var edges [][2]graph.NodeID
		for _, u := range g.Nodes() {
			for _, v := range g.Neighbors(u) {
				if u < v && !down[[2]graph.NodeID{u, v}] {
					edges = append(edges, [2]graph.NodeID{u, v})
				}
			}
		}
		if len(edges) == 0 {
			return
		}
		e := edges[r.Intn(len(edges))]
		down[e] = true
		w.SetLink(e[0], e[1], false)
		w.Engine.After(outage, func() {
			delete(down, e)
			if w.Proc(e[0]) != nil && w.Proc(e[1]) != nil {
				w.SetLink(e[0], e[1], true)
			}
		})
	})
	return tk.Stop
}

// Partitioner realizes the C2/C3 argument against fixed-point probes: it
// detaches a chosen victim for a while and reattaches it later, so any
// protocol that concluded during the outage missed a stable member.
// Requires an overlay with direct link control (topology.Manual). Class
// powers used: link dynamics within an unconstrained geography.
type Partitioner struct {
	// Victim is the entity to isolate.
	Victim graph.NodeID
	// CutAt and HealAt bound the outage (absolute virtual times).
	CutAt, HealAt sim.Time

	saved []graph.NodeID
}

// Name identifies the strategy in experiment output.
func (*Partitioner) Name() string { return "partitioner" }

// Attach starts the adversary's activity on the world; the returned
// function stops it.
func (pa *Partitioner) Attach(w *node.World) func() {
	cutEv := w.Engine.At(pa.CutAt, func() {
		pa.saved = w.Overlay.Graph().Neighbors(pa.Victim)
		for _, u := range pa.saved {
			w.SetLink(pa.Victim, u, false)
		}
	})
	healEv := w.Engine.At(pa.HealAt, func() {
		for _, u := range pa.saved {
			if w.Proc(u) != nil {
				w.SetLink(pa.Victim, u, true)
			}
		}
	})
	return func() {
		cutEv.Cancel()
		healEv.Cancel()
	}
}
