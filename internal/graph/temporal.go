package graph

import (
	"fmt"
	"math"
	"sort"
)

// The temporal layer captures the paper's second dimension: an entity only
// ever observes its neighbors, and what it can learn about the whole
// system is bounded by time-respecting (journey) reachability over the
// evolving graph G(t). A node v is temporally reachable from u starting at
// time t0 if information leaving u at t0 can reach v by hopping only over
// edges that exist when the hop is taken.

// EventKind discriminates temporal graph events.
type EventKind uint8

// Temporal graph event kinds.
const (
	NodeJoin EventKind = iota
	NodeLeave
	EdgeUp
	EdgeDown
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case NodeJoin:
		return "join"
	case NodeLeave:
		return "leave"
	case EdgeUp:
		return "edge-up"
	case EdgeDown:
		return "edge-down"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// TemporalEvent is one change to the evolving graph. For node events V is
// unused (zero).
type TemporalEvent struct {
	At   int64
	Kind EventKind
	U, V NodeID
}

// Temporal is an evolving graph represented as an event log. Events are
// kept sorted by time; ties are resolved in append order, matching the
// simulator's deterministic tie-breaking.
type Temporal struct {
	events []TemporalEvent
	sorted bool
}

// NewTemporal returns an empty evolving graph.
func NewTemporal() *Temporal { return &Temporal{sorted: true} }

// Record appends an event to the log.
func (tg *Temporal) Record(ev TemporalEvent) {
	if n := len(tg.events); n > 0 && ev.At < tg.events[n-1].At {
		tg.sorted = false
	}
	tg.events = append(tg.events, ev)
}

// Events returns the event log sorted by time (stable within a time).
func (tg *Temporal) Events() []TemporalEvent {
	tg.ensureSorted()
	out := make([]TemporalEvent, len(tg.events))
	copy(out, tg.events)
	return out
}

// Len returns the number of recorded events.
func (tg *Temporal) Len() int { return len(tg.events) }

func (tg *Temporal) ensureSorted() {
	if !tg.sorted {
		sort.SliceStable(tg.events, func(i, j int) bool {
			return tg.events[i].At < tg.events[j].At
		})
		tg.sorted = true
	}
}

// apply mutates g according to ev.
func apply(g *Graph, ev TemporalEvent) {
	switch ev.Kind {
	case NodeJoin:
		g.AddNode(ev.U)
	case NodeLeave:
		g.RemoveNode(ev.U)
	case EdgeUp:
		g.AddEdge(ev.U, ev.V)
	case EdgeDown:
		g.RemoveEdge(ev.U, ev.V)
	}
}

// Replay walks the log one stable period at a time and returns the graph
// it ends on. Events before from are applied unseen; visit then sees
// (from, g), the graph entering the window, and after that (t, g) once per
// distinct timestamp t in [from, to], with every event at t applied — the
// graph that holds until the next timestamp. g is mutated between calls:
// visitors read it, they do not keep it.
func (tg *Temporal) Replay(from, to int64, visit func(t int64, g *Graph)) *Graph {
	tg.ensureSorted()
	g := New()
	i := 0
	for ; i < len(tg.events) && tg.events[i].At < from; i++ {
		apply(g, tg.events[i])
	}
	visit(from, g)
	for i < len(tg.events) && tg.events[i].At <= to {
		t := tg.events[i].At
		for ; i < len(tg.events) && tg.events[i].At == t; i++ {
			apply(g, tg.events[i])
		}
		visit(t, g)
	}
	return g
}

// Snapshot returns the graph state immediately after all events with
// time <= t have been applied.
func (tg *Temporal) Snapshot(t int64) *Graph {
	return tg.Replay(math.MinInt64, t, func(int64, *Graph) {})
}

// ReachableFrom computes the set of nodes temporally reachable from src in
// the window [start, end]. The propagation model is "fast information,
// slow churn": within each stable period of the graph, information spreads
// through the whole connected component of the reached set before the next
// topology change (hop latency is negligible compared to churn). This is
// the standard fluid limit used when reasoning about what an entity can
// ever learn; a node that has left the system stops relaying but remains
// in the returned set (it learned the information while present).
//
// src must be present at some point during the window for the result to
// be non-empty; if src is not in the graph at start, propagation begins
// when it joins.
func (tg *Temporal) ReachableFrom(src NodeID, start, end int64) map[NodeID]bool {
	arrival := tg.EarliestArrival(src, start, end)
	reached := make(map[NodeID]bool, len(arrival))
	for v := range arrival {
		reached[v] = true
	}
	return reached
}

// EarliestArrival computes, for every node temporally reachable from src
// in [start, end], the earliest time information leaving src at start can
// have reached it under ReachableFrom's propagation model (spreading
// completes within each stable period, the one entering the window
// included). src maps to start, or to its join time if it joins later.
func (tg *Temporal) EarliestArrival(src NodeID, start, end int64) map[NodeID]int64 {
	arrival := make(map[NodeID]int64)
	tg.Replay(start, end, func(now int64, g *Graph) {
		if _, ok := arrival[src]; !ok && g.HasNode(src) {
			arrival[src] = now
		}
		// Flood from every reached node still present.
		frontier := make([]NodeID, 0, len(arrival))
		for v := range arrival {
			if g.HasNode(v) {
				frontier = append(frontier, v)
			}
		}
		sort.Slice(frontier, func(a, b int) bool { return frontier[a] < frontier[b] })
		for len(frontier) > 0 {
			var next []NodeID
			for _, v := range frontier {
				for _, u := range g.Neighbors(v) {
					if _, seen := arrival[u]; !seen {
						arrival[u] = now
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
	})
	return arrival
}

// ReachabilityFraction returns, averaged over all nodes ever present in
// [start, end], the fraction of ever-present nodes each node can
// temporally reach. Present means in the graph during some stable period
// of the window — exactly the nodes ReachableFrom can return. 1.0 means
// every member could in principle learn about the whole system; low values
// witness the paper's point that a member of a dynamic system may never be
// able to know the system it belongs to.
func (tg *Temporal) ReachabilityFraction(start, end int64) float64 {
	present := make(map[NodeID]bool)
	tg.Replay(start, end, func(_ int64, g *Graph) {
		g.adj.Each(func(v NodeID, _ []NodeID) { present[v] = true })
	})
	if len(present) == 0 {
		return 0
	}
	ids := make([]NodeID, 0, len(present))
	for v := range present {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	total := 0.0
	for _, v := range ids {
		total += float64(len(tg.ReachableFrom(v, start, end))) / float64(len(present))
	}
	return total / float64(len(present))
}
