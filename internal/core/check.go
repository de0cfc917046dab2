package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Violation is one way a recorded run falls outside a declared class.
type Violation struct {
	At  Time
	Msg string
}

func (v Violation) String() string { return fmt.Sprintf("t=%d: %s", v.At, v.Msg) }

// CheckReport is the outcome of checking a trace against a class, plus the
// observed quantities the check was based on.
type CheckReport struct {
	Class      Class
	Violations []Violation
	// ObservedConcurrency is the run's maximum simultaneous membership.
	ObservedConcurrency int
	// ObservedDiameter is the largest snapshot diameter seen, and
	// DiameterDefined whether every non-trivial snapshot was connected
	// (diameter undefined on a partitioned snapshot).
	ObservedDiameter int
	DiameterDefined  bool
	// QuiescentFrom is the time of the last topology change.
	QuiescentFrom Time
}

// OK reports whether the trace satisfied every class constraint.
func (r CheckReport) OK() bool { return len(r.Violations) == 0 }

// stabilityConvention: a finite trace witnesses eventual stability when it
// ends with a topology-quiescent suffix at least this fraction of the run.
// Eventual stability is a property of infinite runs; any finite-trace
// check is a convention, and this one (a quarter of the run quiet) is what
// the experiment harness and the checker agree on.
const stabilityDenominator = 4

// CheckClass verifies that a recorded run is admissible in class c and
// returns the evidence. Constraints that a finite trace cannot refute
// (e.g. the finiteness of concurrency in M^n) produce no violations.
func CheckClass(tr *Trace, c Class) CheckReport {
	rep := CheckReport{
		Class:               c,
		ObservedConcurrency: tr.MaxConcurrency(),
		DiameterDefined:     true,
		QuiescentFrom:       tr.LastTopologyChange(),
	}

	rep.checkSize(tr, c)
	tr.eachSnapshot(func(t Time, g *graph.Graph) { rep.checkSnapshot(g, t, c) })

	if end := tr.End(); c.EventuallyStable && !witnessesStability(end, rep.QuiescentFrom) {
		rep.add(rep.QuiescentFrom, fmt.Sprintf(
			"eventual stability not witnessed: last topology change at %d, run ends at %d (quiescent suffix %d < %d)",
			rep.QuiescentFrom, end, end-rep.QuiescentFrom, end/stabilityDenominator))
	}
	return rep
}

// witnessesStability applies the stabilityDenominator convention to a run
// ending at end whose topology last changed at quiescentFrom.
func witnessesStability(end, quiescentFrom Time) bool {
	return end == 0 || end-quiescentFrom >= end/stabilityDenominator
}

func (r *CheckReport) add(at Time, msg string) {
	r.Violations = append(r.Violations, Violation{At: at, Msg: msg})
}

// unstaticEvents calls visit for every membership event a static system
// cannot contain — a join after the run's first tick, or any leave — and
// returns that first tick and the number of joins.
func (tr *Trace) unstaticEvents(visit func(ev *TraceEvent)) (start Time, joins int) {
	if tr.log.n > 0 {
		start = tr.log.chunks[0][0].At
	}
	tr.log.each(func(ev *TraceEvent) {
		if ev.Kind == TJoin {
			joins++
		}
		if ev.Kind == TLeave || (ev.Kind == TJoin && ev.At != start) {
			visit(ev)
		}
	})
	return start, joins
}

// eachSnapshot calls visit on the graph of every stable period of the run
// that holds at least two entities (empty and singleton snapshots satisfy
// every geography), in time order. g is the replay's working graph: read
// it, do not keep it.
func (tr *Trace) eachSnapshot(visit func(t Time, g *graph.Graph)) {
	tr.Temporal().Replay(math.MinInt64, math.MaxInt64, func(t Time, g *graph.Graph) {
		if g.NumNodes() > 1 {
			visit(t, g)
		}
	})
}

func (r *CheckReport) checkSize(tr *Trace, c Class) {
	switch c.Size {
	case SizeStatic:
		start, joins := tr.unstaticEvents(func(ev *TraceEvent) {
			if ev.Kind == TJoin {
				r.add(ev.At, fmt.Sprintf("entity %d joined mid-run in a static class", ev.P))
			} else {
				r.add(ev.At, fmt.Sprintf("entity %d left in a static class", ev.P))
			}
		})
		if c.B > 0 && joins != c.B {
			r.add(start, fmt.Sprintf("static class declares n=%d but %d entities joined", c.B, joins))
		}
	case SizeBoundedKnown:
		if c.B > 0 && r.ObservedConcurrency > c.B {
			r.add(0, fmt.Sprintf("concurrency %d exceeds declared bound b=%d (M^b)",
				r.ObservedConcurrency, c.B))
		}
	case SizeBoundedUnknown, SizeUnbounded:
		// A finite trace always has finite concurrency: nothing refutable.
	}
}

// observeDiameter folds one snapshot's diameter into the report; ok is
// false on a partitioned snapshot, whose diameter is undefined.
func (r *CheckReport) observeDiameter(g *graph.Graph) (d int, ok bool) {
	d, ok = g.Diameter()
	if !ok {
		r.DiameterDefined = false
	} else if d > r.ObservedDiameter {
		r.ObservedDiameter = d
	}
	return d, ok
}

func complete(g *graph.Graph) bool {
	n := g.NumNodes()
	return g.NumEdges() == n*(n-1)/2
}

func (r *CheckReport) checkSnapshot(g *graph.Graph, t Time, c Class) {
	switch c.Geo {
	case GeoComplete:
		if !complete(g) {
			r.add(t, fmt.Sprintf("snapshot not complete: %d nodes, %d edges", g.NumNodes(), g.NumEdges()))
		}
	case GeoDiameterKnown, GeoDiameterBounded:
		d, ok := r.observeDiameter(g)
		if !ok {
			r.add(t, "snapshot disconnected in an always-connected class")
		} else if c.Geo == GeoDiameterKnown && c.D > 0 && d > c.D {
			r.add(t, fmt.Sprintf("snapshot diameter %d exceeds declared bound D=%d", d, c.D))
		}
	case GeoUnconstrained:
		r.observeDiameter(g)
	}
}

// InferClass returns the tightest class (along the paper's refinement
// order) that the recorded run witnesses. Since any finite trace has
// finite concurrency and finitely many snapshots, the inferred size model
// is SizeStatic or SizeBoundedKnown (with the observed bound) and the
// inferred geography carries observed bounds; whether the *generator*
// was M^n or M^infinity is not decidable from one finite run — that is
// precisely the paper's point about unknown-bound models.
func InferClass(tr *Trace) Class {
	c := Class{}

	static := true
	tr.unstaticEvents(func(*TraceEvent) { static = false })
	if static {
		c.Size = SizeStatic
		c.B = len(tr.Entities())
	} else {
		c.Size = SizeBoundedKnown
		c.B = tr.MaxConcurrency()
	}

	allComplete := true
	seen := CheckReport{DiameterDefined: true}
	tr.eachSnapshot(func(_ Time, g *graph.Graph) {
		allComplete = allComplete && complete(g)
		seen.observeDiameter(g)
	})
	switch {
	case allComplete:
		c.Geo = GeoComplete
	case seen.DiameterDefined:
		c.Geo = GeoDiameterKnown
		c.D = seen.ObservedDiameter
	default:
		c.Geo = GeoUnconstrained
	}

	c.EventuallyStable = witnessesStability(tr.End(), tr.LastTopologyChange())
	return c
}
