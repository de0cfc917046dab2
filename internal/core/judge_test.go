package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The class judges as they were before the bounded diameter kernel and
// before the stream judge, kept verbatim up to the diameter they ask for,
// as the reference the floored queries and the one stream judge must
// agree with: batch walks of the retained log, with their own
// membership, snapshot and size logic.

// allPairsDiameter is every node's eccentricity, one BFS each.
func allPairsDiameter(g *graph.Graph) (int, bool) {
	diam := 0
	for _, v := range g.Nodes() {
		ecc, ok := g.Eccentricity(v)
		if !ok {
			return 0, false
		}
		diam = max(diam, ecc)
	}
	return diam, true
}

func (r *CheckReport) refObserveDiameter(g *graph.Graph) (int, bool) {
	d, ok := allPairsDiameter(g)
	if !ok {
		r.DiameterDefined = false
	} else if d > r.ObservedDiameter {
		r.ObservedDiameter = d
	}
	return d, ok
}

// unstaticEvents calls visit for every membership event a static system
// cannot contain — a join after the run's first tick, or any leave — and
// returns that first tick and the number of joins.
func (tr *Trace) unstaticEvents(visit func(ev *TraceEvent)) (start Time, joins int) {
	if len(tr.log.ticks) > 0 {
		start = tr.log.ticks[0].at
	}
	tr.Replay(func(ev TraceEvent) {
		if ev.Kind == TJoin {
			joins++
		}
		if ev.Kind == TLeave || (ev.Kind == TJoin && ev.At != start) {
			visit(&ev)
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

func refCheckClass(tr *Trace, c Class) CheckReport {
	rep := CheckReport{
		Class:               c,
		ObservedConcurrency: tr.MaxConcurrency(),
		DiameterDefined:     true,
		QuiescentFrom:       tr.LastTopologyChange(),
	}
	rep.checkSize(tr, c)
	tr.eachSnapshot(func(t Time, g *graph.Graph) {
		switch c.Geo {
		case GeoComplete:
			if !complete(g) {
				rep.add(t, fmt.Sprintf("snapshot not complete: %d nodes, %d edges", g.NumNodes(), g.NumEdges()))
			}
		case GeoDiameterKnown, GeoDiameterBounded:
			d, ok := rep.refObserveDiameter(g)
			if !ok {
				rep.add(t, "snapshot disconnected in an always-connected class")
			} else if c.Geo == GeoDiameterKnown && c.D > 0 && d > c.D {
				rep.add(t, fmt.Sprintf("snapshot diameter %d exceeds declared bound D=%d", d, c.D))
			}
		case GeoUnconstrained:
			rep.refObserveDiameter(g)
		}
	})
	if end := tr.End(); c.EventuallyStable && !witnessesStability(end, rep.QuiescentFrom) {
		rep.add(rep.QuiescentFrom, fmt.Sprintf(
			"eventual stability not witnessed: last topology change at %d, run ends at %d (quiescent suffix %d < %d)",
			rep.QuiescentFrom, end, end-rep.QuiescentFrom, end/stabilityDenominator))
	}
	return rep
}

func refInferClass(tr *Trace) Class {
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
		seen.refObserveDiameter(g)
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

// overlayTrace records a seeded churned run over overlay o the way a world
// records one — a join and then the overlay's edge changes, a leave's edge
// changes and then the leave — with no protocol, so it holds geography
// only.
func overlayTrace(o topology.Overlay, seed uint64, horizon Time) *Trace {
	tr := &Trace{}
	record := func(t Time, chs []topology.Change) {
		for _, c := range chs {
			if c.Up {
				tr.EdgeUp(t, c.U, c.V)
			} else {
				tr.EdgeDown(t, c.U, c.V)
			}
		}
	}
	gen := churn.New(seed, churn.Config{InitialPopulation: 24, ArrivalRate: 0.4, Session: churn.ExpSessions(60)})
	for {
		ev, ok := gen.Next()
		if !ok || ev.At >= horizon {
			break
		}
		if ev.Join {
			tr.Join(ev.At, ev.Node)
			record(ev.At, o.AddNode(ev.Node))
		} else {
			record(ev.At, o.RemoveNode(ev.Node))
			tr.Leave(ev.At, ev.Node)
		}
	}
	tr.Close(horizon)
	return tr
}

// TestJudgesMatchAllPairs holds InferClass and CheckClass — the class,
// and the whole report, violation texts included — to the all-pairs
// judges on churned ring, star, random-k(3) and fragile runs at several
// seeds. Fragile runs partition, so the judges' handling of the
// snapshots after a partition is covered; the declared classes include
// diameter bounds below the run's, so the exact diameters the violation
// texts print are pinned, bounds at and above it, and every geography.
func TestJudgesMatchAllPairs(t *testing.T) {
	overlays := []struct {
		name string
		make func(seed uint64) topology.Overlay
	}{
		{"ring", func(s uint64) topology.Overlay { return topology.NewRing(s) }},
		{"star", func(uint64) topology.Overlay { return topology.NewStar() }},
		{"random-k(3)", func(s uint64) topology.Overlay { return topology.NewRandomK(s, 3) }},
		{"fragile", func(s uint64) topology.Overlay { return topology.NewFragile(s) }},
	}
	type run struct {
		name string
		tr   *Trace
	}
	var runs []run
	for seed := uint64(1); seed <= 4; seed++ {
		for _, o := range overlays {
			runs = append(runs, run{fmt.Sprintf("%s seed %d", o.name, seed), overlayTrace(o.make(seed), seed, 400)})
		}
		runs = append(runs, run{fmt.Sprintf("churned 32-ring seed %d", seed), churnedRing(32, 300, seed)})
	}
	var partitioned, exceeded int
	for _, r := range runs {
		want := refInferClass(r.tr)
		if got := InferClass(r.tr); got != want {
			t.Errorf("%s: InferClass = %+v, want %+v", r.name, got, want)
		}
		ref := refCheckClass(r.tr, Class{Geo: GeoUnconstrained})
		if !ref.DiameterDefined {
			partitioned++
		}
		var classes []Class
		for _, size := range []SizeModel{SizeStatic, SizeBoundedKnown, SizeBoundedUnknown} {
			for _, geo := range []GeoModel{GeoComplete, GeoDiameterBounded, GeoUnconstrained} {
				classes = append(classes, Class{Size: size, B: 24, Geo: geo, EventuallyStable: true})
			}
		}
		for _, d := range []int{0, 1, 2, ref.ObservedDiameter - 1, ref.ObservedDiameter, ref.ObservedDiameter + 1} {
			classes = append(classes, Class{Size: SizeBoundedUnknown, Geo: GeoDiameterKnown, D: d})
		}
		for _, c := range classes {
			got, want := CheckClass(r.tr, c), refCheckClass(r.tr, c)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: CheckClass(%s) =\n%+v\nwant\n%+v", r.name, c, got, want)
			}
			for _, v := range got.Violations {
				if strings.HasPrefix(v.Msg, "snapshot diameter ") {
					exceeded++
				}
			}
		}
	}
	// The fence must have exercised what it is for.
	if partitioned == 0 {
		t.Error("no run partitioned: the snapshots after a partition went untested")
	}
	if exceeded == 0 {
		t.Error("no run broke a declared diameter bound: the violation texts went untested")
	}
}

// rerecord records tr's events into a fresh trace with the given
// retention, after registering sinks on it, so they see the run as a
// world's live sinks do: from before the first Record.
func rerecord(tr *Trace, countOnly bool, sinks ...func(TraceEvent)) *Trace {
	out := &Trace{}
	out.SetCountOnly(countOnly)
	for _, fn := range sinks {
		out.Stream(fn)
	}
	tr.Replay(out.Record)
	out.Close(tr.End())
	return out
}

// TestClassJudgeLiveMatchesReplay feeds the trace families
// TestJudgesMatchAllPairs covers to judges registered with Trace.Stream
// before the first Record, under full and count-only retention, and
// holds their classes and reports to the post-hoc replays. Count-only
// traces keep no events, so there the live judge is the only judge.
func TestClassJudgeLiveMatchesReplay(t *testing.T) {
	classes := []Class{
		{Geo: GeoUnconstrained},
		{Size: SizeStatic, B: 24, Geo: GeoComplete, EventuallyStable: true},
		{Size: SizeBoundedKnown, B: 24, Geo: GeoDiameterBounded},
		{Size: SizeBoundedUnknown, Geo: GeoDiameterKnown, D: 2},
	}
	overlays := map[string]func(seed uint64) topology.Overlay{
		"ring":        func(s uint64) topology.Overlay { return topology.NewRing(s) },
		"star":        func(uint64) topology.Overlay { return topology.NewStar() },
		"random-k(3)": func(s uint64) topology.Overlay { return topology.NewRandomK(s, 3) },
		"fragile":     func(s uint64) topology.Overlay { return topology.NewFragile(s) },
	}
	for seed := uint64(1); seed <= 4; seed++ {
		runs := map[string]*Trace{"churned 32-ring": churnedRing(32, 300, seed)}
		for name, mk := range overlays {
			runs[name] = overlayTrace(mk(seed), seed, 400)
		}
		for name, tr := range runs {
			for _, countOnly := range []bool{false, true} {
				infer := NewClassJudge(nil)
				checks := make([]*ClassJudge, len(classes))
				sinks := []func(TraceEvent){infer.Observe}
				for i := range classes {
					checks[i] = NewClassJudge(&classes[i])
					sinks = append(sinks, checks[i].Observe)
				}
				live := rerecord(tr, countOnly, sinks...)
				if countOnly && len(live.Events()) != 0 {
					t.Fatalf("%s seed %d: count-only trace retained %d events", name, seed, len(live.Events()))
				}
				if got, want := infer.Class(live.End()), InferClass(tr); got != want {
					t.Errorf("%s seed %d (count-only %v): live class %s, replay %s", name, seed, countOnly, got, want)
				}
				for i, c := range classes {
					if got, want := checks[i].Report(live.End()), CheckClass(tr, c); !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d (count-only %v): live report on %s =\n%+v\nreplay\n%+v",
							name, seed, countOnly, c, got, want)
					}
				}
			}
		}
	}
}
