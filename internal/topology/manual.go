package topology

import "repro/internal/graph"

// LinkController is implemented by overlays whose edges the experiment
// harness can flip directly — used to stage partitions and transient
// unreachability, the geography pathologies behind the paper's
// impossibility arguments.
type LinkController interface {
	// Link brings edge {u, v} up (no-op if present or an endpoint is
	// absent) and reports whether it did.
	Link(u, v graph.NodeID) bool
	// Unlink takes edge {u, v} down (no-op if absent) and reports whether
	// it did.
	Unlink(u, v graph.NodeID) bool
}

// Manual is an overlay with no maintenance policy at all: joiners arrive
// isolated and every edge is placed or removed explicitly through the
// LinkController interface. It is the scenario-scripting overlay.
type Manual struct{ base }

// NewManual returns an empty manual overlay.
func NewManual() *Manual { return &Manual{base: newBase()} }

// Name implements Overlay.
func (*Manual) Name() string { return "manual" }

// AddNode inserts p isolated.
func (m *Manual) AddNode(p graph.NodeID) []Change {
	m.g.AddNode(p)
	return nil
}

// RemoveNode drops p and its edges.
func (m *Manual) RemoveNode(p graph.NodeID) []Change {
	return m.dropNode(nil, p)
}

// Link implements LinkController.
func (m *Manual) Link(u, v graph.NodeID) bool { return m.g.Link(u, v) }

// Unlink implements LinkController.
func (m *Manual) Unlink(u, v graph.NodeID) bool { return m.g.Unlink(u, v) }

var _ LinkController = (*Manual)(nil)
