// Package core formalizes the paper's proposal: a definition of dynamic
// distributed systems structured along two orthogonal dimensions.
//
// The size dimension captures who is in the system: a possibly very large,
// varying set of entities, classified by the concurrency pattern of
// arrivals (the infinite arrival models M^b, M^n, M^infinity of Merritt &
// Taubenfeld). The geography dimension captures who knows whom: each
// entity only knows its neighbors in an evolving graph G(t), classified by
// connectivity and diameter assumptions.
//
// A Class is a point in the product of the two dimensions (plus an
// optional eventual-stability attribute). The package provides recorded
// run traces, predicates that decide whether a trace belongs to a class,
// and the solvability oracle encoding the paper's claims about the
// canonical One-Time Query problem.
package core

import "fmt"

// SizeModel is the size dimension of a system class: how the set of
// entities is allowed to vary.
type SizeModel uint8

// Size dimension values, ordered from most to least constrained.
const (
	// SizeStatic is the classical static system: a fixed set of n
	// entities, present from the start, never leaving; n is known.
	SizeStatic SizeModel = iota
	// SizeBoundedKnown is the infinite arrival model M^b: infinitely many
	// entities may arrive over time but at most B are simultaneously
	// present, and B is known to the protocol.
	SizeBoundedKnown
	// SizeBoundedUnknown is the infinite arrival model M^n: in every run
	// concurrency is finite, but no bound is known a priori.
	SizeBoundedUnknown
	// SizeUnbounded is the infinite arrival model M^infinity: the number of
	// simultaneously present entities may grow without bound during a run.
	SizeUnbounded
)

// String returns the conventional model name.
func (m SizeModel) String() string {
	switch m {
	case SizeStatic:
		return "static"
	case SizeBoundedKnown:
		return "M^b"
	case SizeBoundedUnknown:
		return "M^n"
	case SizeUnbounded:
		return "M^inf"
	default:
		return fmt.Sprintf("SizeModel(%d)", uint8(m))
	}
}

// GeoModel is the geography/knowledge dimension: what an entity can know
// about the communication structure.
type GeoModel uint8

// Geography dimension values, ordered from most to least constrained.
const (
	// GeoComplete means every entity can communicate with (and knows of)
	// every other present entity: the graph is complete at all times.
	GeoComplete GeoModel = iota
	// GeoDiameterKnown means G(t) is always connected and its diameter
	// never exceeds a bound D that is known to the protocol.
	GeoDiameterKnown
	// GeoDiameterBounded means G(t) is always connected and its diameter
	// is bounded in every run, but no bound is known a priori.
	GeoDiameterBounded
	// GeoUnconstrained means the graph may partition and/or its diameter
	// may grow without bound.
	GeoUnconstrained
)

// String returns a short name for the geography model.
func (m GeoModel) String() string {
	switch m {
	case GeoComplete:
		return "complete"
	case GeoDiameterKnown:
		return "diam<=D known"
	case GeoDiameterBounded:
		return "diam bounded"
	case GeoUnconstrained:
		return "unconstrained"
	default:
		return fmt.Sprintf("GeoModel(%d)", uint8(m))
	}
}

// Class is a system class: a point in the two-dimensional space the paper
// proposes, plus the eventual-stability attribute that several of its
// solvability observations hinge on.
type Class struct {
	Size SizeModel
	// B is the known concurrency bound; meaningful only when Size is
	// SizeBoundedKnown (or SizeStatic, where it equals n).
	B   int
	Geo GeoModel
	// D is the known diameter bound; meaningful only when Geo is
	// GeoDiameterKnown.
	D int
	// EventuallyStable asserts that in every run there is a (unknown)
	// time after which no entity joins or leaves and no edge changes:
	// the dynamic counterpart of a global stabilization time.
	EventuallyStable bool
}

// String renders the class in the paper's notation style, e.g.
// "(M^b[64], diam<=D known[8])" or "(M^inf, unconstrained, ev-stable)".
func (c Class) String() string {
	size := c.Size.String()
	if c.Size == SizeBoundedKnown || c.Size == SizeStatic {
		size = fmt.Sprintf("%s[%d]", size, c.B)
	}
	geo := c.Geo.String()
	if c.Geo == GeoDiameterKnown {
		geo = fmt.Sprintf("diam<=%d known", c.D)
	}
	if c.EventuallyStable {
		return fmt.Sprintf("(%s, %s, ev-stable)", size, geo)
	}
	return fmt.Sprintf("(%s, %s)", size, geo)
}
