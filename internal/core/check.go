package core

import (
	"fmt"

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
	// ObservedDiameter is the exact largest diameter over the connected
	// snapshots (a partitioned one has none, and those after it still
	// count), and DiameterDefined whether every non-trivial snapshot was
	// connected.
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
func CheckClass(tr *Trace, c Class) CheckReport { return NewClassJudge(&c).replay(tr).Report(tr.End()) }

// InferClass returns the tightest class (along the paper's refinement
// order) that the recorded run witnesses. Since any finite trace has
// finite concurrency and finitely many snapshots, the inferred size model
// is SizeStatic or SizeBoundedKnown (with the observed bound) and the
// inferred geography carries observed bounds; whether the *generator*
// was M^n or M^infinity is not decidable from one finite run — that is
// precisely the paper's point about unknown-bound models.
func InferClass(tr *Trace) Class { return NewClassJudge(nil).replay(tr).Class(tr.End()) }

// ClassJudge is the one class judge: a trace sink that keeps the run's
// graph live (TickGraph) and judges each stable period's snapshot when
// the clock leaves a tick that changed topology, and once more at the
// end, so its memory is the live graph, not the log. InferClass and
// CheckClass replay a retained trace through it; registered with
// Trace.Stream before the first Record, it judges a run whose events are
// never retained (SetCountOnly).
type ClassJudge struct {
	declared *Class // nil: infer only
	tick     TickGraph
	rep      CheckReport // the running facts and the snapshot violations
	size     []Violation // the size violations, which Report lists first

	began      bool
	start      Time // the first event's tick, of any kind
	joins, cur int
	unstatic   bool // a join after start, or a leave: no static run
	incomplete bool // some snapshot was not complete
}

// NewClassJudge returns a judge that infers the run's class (Class) or,
// given a declared class, checks the run against it (Report).
func NewClassJudge(declared *Class) *ClassJudge {
	return &ClassJudge{declared: declared, rep: CheckReport{DiameterDefined: true}}
}

func (j *ClassJudge) replay(tr *Trace) *ClassJudge {
	tr.Replay(j.Observe)
	return j
}

// Observe consumes one trace event, in record order.
func (j *ClassJudge) Observe(ev TraceEvent) {
	if !j.began {
		j.began, j.start = true, ev.At
	}
	if at, batch, _ := j.tick.Advance(ev.At); len(batch) > 0 {
		j.snapshot(at)
	}
	switch ev.Kind {
	case TJoin:
		j.joins++
		j.cur++
		j.rep.ObservedConcurrency = max(j.rep.ObservedConcurrency, j.cur)
		if ev.At != j.start {
			j.notStatic(ev.At, "entity %d joined mid-run in a static class", ev.P)
		}
	case TLeave:
		j.cur--
		j.notStatic(ev.At, "entity %d left in a static class", ev.P)
	case TEdgeUp, TEdgeDown:
	default:
		return // messages and marks carry no class fact
	}
	j.rep.QuiescentFrom = max(j.rep.QuiescentFrom, ev.At)
	j.tick.Buffer(ev)
}

// notStatic notes a membership event a static system cannot contain.
func (j *ClassJudge) notStatic(at Time, format string, p graph.NodeID) {
	j.unstatic = true
	if j.declared != nil && j.declared.Size == SizeStatic {
		j.size = append(j.size, Violation{At: at, Msg: fmt.Sprintf(format, p)})
	}
}

// snapshot judges the stable period that begins at tick t. Empty and
// singleton snapshots satisfy every geography.
func (j *ClassJudge) snapshot(t Time) {
	g, r := j.tick.Graph(), &j.rep
	if g.NumNodes() <= 1 {
		return
	}
	if j.declared == nil {
		j.incomplete = j.incomplete || !complete(g)
		// Once a snapshot is partitioned the geography is decided (a
		// partitioned snapshot is not complete either), so the remaining
		// snapshots' diameters are not needed.
		if r.DiameterDefined {
			r.observeDiameter(g, r.ObservedDiameter)
		}
		return
	}
	switch c := j.declared; c.Geo {
	case GeoComplete:
		if !complete(g) {
			r.add(t, fmt.Sprintf("snapshot not complete: %d nodes, %d edges", g.NumNodes(), g.NumEdges()))
		}
	case GeoDiameterKnown, GeoDiameterBounded:
		// Under a declared D the floor stays at or below D too, so a
		// diameter that breaks the bound is computed exactly for the
		// violation text.
		floor := r.ObservedDiameter
		if c.Geo == GeoDiameterKnown && c.D > 0 {
			floor = min(floor, c.D)
		}
		d, ok := r.observeDiameter(g, floor)
		if !ok {
			r.add(t, "snapshot disconnected in an always-connected class")
		} else if c.Geo == GeoDiameterKnown && c.D > 0 && d > c.D {
			r.add(t, fmt.Sprintf("snapshot diameter %d exceeds declared bound D=%d", d, c.D))
		}
	case GeoUnconstrained:
		r.observeDiameter(g, r.ObservedDiameter)
	}
}

// settle judges the last tick's snapshot once the stream has ended.
func (j *ClassJudge) settle() {
	if at, batch := j.tick.Flush(); len(batch) > 0 {
		j.snapshot(at)
	}
}

// Class returns the class an undeclared judge infers (see InferClass).
// Call it after the last event, with the trace's end time (Trace.End()
// after Close).
func (j *ClassJudge) Class(end Time) Class {
	j.settle()
	c := Class{Size: SizeBoundedKnown, B: j.rep.ObservedConcurrency}
	if !j.unstatic {
		// A run joins only absent entities, so with no leave every join
		// is a distinct entity.
		c.Size, c.B = SizeStatic, j.joins
	}
	if c.Geo = GeoUnconstrained; !j.incomplete {
		c.Geo = GeoComplete
	} else if j.rep.DiameterDefined {
		c.Geo, c.D = GeoDiameterKnown, j.rep.ObservedDiameter
	}
	c.EventuallyStable = witnessesStability(end, j.rep.QuiescentFrom)
	return c
}

// Report returns the check against the declared class, called like
// Class: the size violations, then the snapshots' in time order, then
// stability's.
func (j *ClassJudge) Report(end Time) CheckReport {
	j.settle()
	rep, c := j.rep, *j.declared
	rep.Class, rep.Violations = c, nil
	switch c.Size {
	case SizeStatic:
		rep.Violations = j.size
		if c.B > 0 && j.joins != c.B {
			rep.add(j.start, fmt.Sprintf("static class declares n=%d but %d entities joined", c.B, j.joins))
		}
	case SizeBoundedKnown:
		if c.B > 0 && rep.ObservedConcurrency > c.B {
			rep.add(0, fmt.Sprintf("concurrency %d exceeds declared bound b=%d (M^b)", rep.ObservedConcurrency, c.B))
		}
	case SizeBoundedUnknown, SizeUnbounded:
		// A finite trace always has finite concurrency: nothing refutable.
	}
	rep.Violations = append(rep.Violations, j.rep.Violations...)
	if c.EventuallyStable && !witnessesStability(end, rep.QuiescentFrom) {
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

// observeDiameter folds one snapshot's diameter into the report; ok is
// false on a partitioned snapshot, whose diameter is undefined. d is
// max(floor, diameter): a floor no larger than ObservedDiameter keeps the
// running maximum exact while sparing the BFS runs that cannot raise it.
func (r *CheckReport) observeDiameter(g *graph.Graph, floor int) (d int, ok bool) {
	d, ok = g.DiameterAbove(floor)
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
