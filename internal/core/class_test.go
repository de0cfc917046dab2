package core

import (
	"strings"
	"testing"
)

// StaticSystem returns the class of a classical static system of n
// processes: fixed membership, complete knowledge.
func StaticSystem(n int) Class {
	return Class{Size: SizeStatic, B: n, Geo: GeoComplete, EventuallyStable: true}
}

// Refines reports whether class c is at least as constrained as d in every
// attribute, i.e. every run admissible in c is admissible in d. It is the
// partial order underlying the paper's "type of dynamic systems in which
// the problem can be solved": solvability is upward-closed along it.
func (c Class) Refines(d Class) bool {
	if c.Size > d.Size {
		return false
	}
	if c.Size == SizeBoundedKnown && d.Size == SizeBoundedKnown && c.B > d.B {
		return false
	}
	if c.Geo > d.Geo {
		return false
	}
	if c.Geo == GeoDiameterKnown && d.Geo == GeoDiameterKnown && c.D > d.D {
		return false
	}
	if d.EventuallyStable && !c.EventuallyStable {
		return false
	}
	return true
}

func TestSizeModelString(t *testing.T) {
	cases := map[SizeModel]string{
		SizeStatic:         "static",
		SizeBoundedKnown:   "M^b",
		SizeBoundedUnknown: "M^n",
		SizeUnbounded:      "M^inf",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("SizeModel(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	if !strings.Contains(SizeModel(42).String(), "42") {
		t.Error("unknown SizeModel string should carry the raw value")
	}
}

func TestGeoModelString(t *testing.T) {
	for m, want := range map[GeoModel]string{
		GeoComplete:        "complete",
		GeoDiameterKnown:   "diam<=D known",
		GeoDiameterBounded: "diam bounded",
		GeoUnconstrained:   "unconstrained",
	} {
		if m.String() != want {
			t.Errorf("GeoModel(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestClassString(t *testing.T) {
	c := Class{Size: SizeBoundedKnown, B: 64, Geo: GeoDiameterKnown, D: 8}
	s := c.String()
	if !strings.Contains(s, "M^b[64]") || !strings.Contains(s, "diam<=8") {
		t.Errorf("Class.String() = %q", s)
	}
	c.EventuallyStable = true
	if !strings.Contains(c.String(), "ev-stable") {
		t.Errorf("stable class string %q misses ev-stable", c.String())
	}
}

func TestStaticSystem(t *testing.T) {
	c := StaticSystem(10)
	if c.Size != SizeStatic || c.B != 10 || c.Geo != GeoComplete || !c.EventuallyStable {
		t.Fatalf("StaticSystem(10) = %+v", c)
	}
}

func TestRefinesReflexive(t *testing.T) {
	cases := []Class{
		StaticSystem(5),
		{Size: SizeBoundedKnown, B: 8, Geo: GeoDiameterKnown, D: 4},
		{Size: SizeUnbounded, Geo: GeoUnconstrained},
	}
	for _, c := range cases {
		if !c.Refines(c) {
			t.Errorf("%v does not refine itself", c)
		}
	}
}

func TestRefinesOrder(t *testing.T) {
	static := StaticSystem(5)
	mb := Class{Size: SizeBoundedKnown, B: 5, Geo: GeoDiameterKnown, D: 3}
	minf := Class{Size: SizeUnbounded, Geo: GeoUnconstrained}

	if !static.Refines(minf) {
		t.Error("static runs should be admissible in the unconstrained class")
	}
	if minf.Refines(static) {
		t.Error("unconstrained class must not refine static")
	}
	if !mb.Refines(minf) {
		t.Error("M^b should refine M^inf")
	}
	if minf.Refines(mb) {
		t.Error("M^inf must not refine M^b")
	}
}

func TestRefinesBounds(t *testing.T) {
	small := Class{Size: SizeBoundedKnown, B: 4, Geo: GeoDiameterKnown, D: 2}
	large := Class{Size: SizeBoundedKnown, B: 8, Geo: GeoDiameterKnown, D: 5}
	if !small.Refines(large) {
		t.Error("tighter bounds should refine looser ones")
	}
	if large.Refines(small) {
		t.Error("looser bounds must not refine tighter ones")
	}
}

func TestRefinesStability(t *testing.T) {
	stable := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterBounded, EventuallyStable: true}
	unstable := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterBounded}
	if !stable.Refines(unstable) {
		t.Error("stable class should refine its unstable counterpart")
	}
	if unstable.Refines(stable) {
		t.Error("unstable class must not refine the stable one")
	}
}

// Property: solvability is upward-closed along refinement — if c refines d
// and OTQ is (at least eventually) solvable in d, the oracle must not make
// it easier in d than in c.
func TestSolvabilityMonotoneAlongRefinement(t *testing.T) {
	classes := enumerateClasses()
	for _, c := range classes {
		vc, _ := OTQSolvability(c)
		for _, d := range classes {
			if !c.Refines(d) {
				continue
			}
			vd, _ := OTQSolvability(d)
			// d admits more runs, so it can only be as hard or harder.
			if vd < vc {
				t.Errorf("oracle not monotone: %v=%v refines %v=%v", c, vc, d, vd)
			}
		}
	}
}

func enumerateClasses() []Class {
	var out []Class
	for _, size := range []SizeModel{SizeStatic, SizeBoundedKnown, SizeBoundedUnknown, SizeUnbounded} {
		for _, geo := range []GeoModel{GeoComplete, GeoDiameterKnown, GeoDiameterBounded, GeoUnconstrained} {
			for _, st := range []bool{false, true} {
				c := Class{Size: size, Geo: geo, EventuallyStable: st}
				if size == SizeStatic || size == SizeBoundedKnown {
					c.B = 8
				}
				if geo == GeoDiameterKnown {
					c.D = 4
				}
				out = append(out, c)
			}
		}
	}
	return out
}

func TestOTQSolvabilityHeadlineClaims(t *testing.T) {
	// C1: static system — solvable.
	if v, _ := OTQSolvability(StaticSystem(16)); v != Solvable {
		t.Errorf("static system: verdict %v, want solvable", v)
	}
	// C1: dynamic, connected, known diameter — solvable.
	c := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterKnown, D: 8}
	if v, _ := OTQSolvability(c); v != Solvable {
		t.Errorf("known-diameter class: verdict %v, want solvable", v)
	}
	// C2: diameter bound unknown, perpetual churn — unsolvable.
	c = Class{Size: SizeBoundedUnknown, Geo: GeoDiameterBounded}
	if v, _ := OTQSolvability(c); v != Unsolvable {
		t.Errorf("unknown-diameter class: verdict %v, want unsolvable", v)
	}
	// C4: same but eventually stable — eventually solvable.
	c.EventuallyStable = true
	if v, _ := OTQSolvability(c); v != SolvableEventually {
		t.Errorf("eventually-stable class: verdict %v, want eventually-solvable", v)
	}
	// C3: unconstrained geography, perpetual churn — unsolvable.
	c = Class{Size: SizeUnbounded, Geo: GeoUnconstrained}
	if v, _ := OTQSolvability(c); v != Unsolvable {
		t.Errorf("M^inf unconstrained: verdict %v, want unsolvable", v)
	}
	// Complete knowledge neutralizes geography for any size model.
	c = Class{Size: SizeUnbounded, Geo: GeoComplete}
	if v, _ := OTQSolvability(c); v != Solvable {
		t.Errorf("M^inf complete: verdict %v, want solvable", v)
	}
}

func TestOTQSolvabilityReasonsNonEmpty(t *testing.T) {
	for _, c := range enumerateClasses() {
		if _, reason := OTQSolvability(c); reason == "" {
			t.Errorf("empty reason for class %v", c)
		}
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Solvable:           "solvable",
		SolvableEventually: "eventually-solvable",
		ApproximateOnly:    "approximate-only",
		Unsolvable:         "unsolvable",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestPredictOTQ(t *testing.T) {
	known := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterKnown, D: 6}
	unknown := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterBounded}
	stable := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterBounded, EventuallyStable: true}

	if p := PredictOTQ(ProtoFloodTTL, known); !p.Terminates || !p.Valid {
		t.Errorf("FloodTTL in known-D class: %+v", p)
	}
	if p := PredictOTQ(ProtoFloodTTL, unknown); !p.Terminates || p.Valid {
		t.Errorf("FloodTTL in unknown-D class: %+v", p)
	}
	if p := PredictOTQ(ProtoEchoWave, stable); !p.Terminates || !p.Valid {
		t.Errorf("EchoWave in stable class: %+v", p)
	}
	if p := PredictOTQ(ProtoEchoWave, unknown); p.Terminates {
		t.Errorf("EchoWave under perpetual churn should not be predicted to terminate: %+v", p)
	}
	if p := PredictOTQ(ProtoExpandingRing, unknown); p.Valid {
		t.Errorf("ExpandingRing without bounds should not be predicted valid: %+v", p)
	}
	if p := PredictOTQ(ProtoGossip, known); p.Valid {
		t.Errorf("Gossip is never exactly valid: %+v", p)
	}
	if p := PredictOTQ(ProtocolID("nonsense"), known); p.Terminates || p.Valid {
		t.Errorf("unknown protocol should predict nothing: %+v", p)
	}
}
