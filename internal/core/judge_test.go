package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/topology"
)

// The geography judges as they were before the bounded diameter kernel,
// kept verbatim up to the diameter they ask for, as the reference the
// floored queries must agree with.

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
