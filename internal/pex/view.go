package pex

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Entry is one view slot: the record plus the peer it was learned from
// (0 for bootstrap/seeded entries), so a poisoned source's contributions
// can be evicted wholesale when it is convicted.
type Entry struct {
	Rec Record
	Via graph.NodeID
}

// View is one entity's bounded partial view. Entries are kept sorted by
// (hop ascending, ID ascending) so head/tail selection, eviction and
// iteration are deterministic. A view never holds its owner's own record
// and never holds two records of one subject.
type View struct {
	cap     int
	entries []Entry
}

// NewView returns an empty view bounded at cap entries.
func NewView(cap int) *View { return &View{cap: cap} }

// Len returns the number of held records.
func (v *View) Len() int { return len(v.entries) }

// Contains reports whether the view holds a record of id.
func (v *View) Contains(id graph.NodeID) bool {
	for _, e := range v.entries {
		if e.Rec.ID == id {
			return true
		}
	}
	return false
}

// Entries returns the held entries in (hop, ID) order. The slice is
// shared; callers must not mutate it.
func (v *View) Entries() []Entry { return v.entries }

// Records returns copies of the held records in (hop, ID) order.
func (v *View) Records() []Record {
	out := make([]Record, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.Rec
	}
	return out
}

// Members returns the held subject IDs, ascending.
func (v *View) Members() []graph.NodeID {
	out := make([]graph.NodeID, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.Rec.ID
	}
	slices.Sort(out)
	return out
}

func (v *View) resort() {
	slices.SortFunc(v.entries, func(a, b Entry) int {
		if c := cmp.Compare(a.Rec.Hop, b.Rec.Hop); c != 0 {
			return c
		}
		return cmp.Compare(a.Rec.ID, b.Rec.ID)
	})
}

// Age increments every record's hop count (one cadence round passed) and
// decays records past maxHop out of the view, returning the dropped
// records — the oldest-first forgetting that clears departed members.
func (v *View) Age(maxHop int) []Record {
	var dropped []Record
	kept := v.entries[:0]
	for i := range v.entries {
		v.entries[i].Rec.Hop++
		if v.entries[i].Rec.Hop > maxHop {
			dropped = append(dropped, v.entries[i].Rec)
		} else {
			kept = append(kept, v.entries[i])
		}
	}
	v.entries = kept
	// Uniform increment preserves the (hop, ID) order; no resort needed.
	return dropped
}

// Merge folds one accepted entry in. A record of a subject already held
// replaces the old one if it is strictly fresher (higher epoch) or
// equally fresh but fewer hops away; when the view is full, the oldest
// entry (highest hop, then highest ID) is evicted to make room — unless
// the newcomer is itself the oldest, in which case it is the one dropped.
// It reports whether the entry was folded in, and returns the evicted
// record, if any.
func (v *View) Merge(e Entry) (merged bool, evicted *Record) {
	for i := range v.entries {
		if v.entries[i].Rec.ID != e.Rec.ID {
			continue
		}
		old := v.entries[i].Rec
		if e.Rec.Epoch > old.Epoch || (e.Rec.Epoch == old.Epoch && e.Rec.Hop < old.Hop) {
			v.entries[i] = e
			v.resort()
			return true, nil
		}
		return false, nil
	}
	if len(v.entries) < v.cap {
		v.entries = append(v.entries, e)
		v.resort()
		return true, nil
	}
	// Full: evict oldest-first. Entries are sorted, so the victim is the
	// last one — unless the newcomer is older still.
	last := v.entries[len(v.entries)-1].Rec
	if e.Rec.Hop > last.Hop || (e.Rec.Hop == last.Hop && e.Rec.ID >= last.ID) {
		return false, nil
	}
	v.entries[len(v.entries)-1] = e
	v.resort()
	return true, &last
}

// Remove drops the record of id, reporting whether one was held.
func (v *View) Remove(id graph.NodeID) bool {
	for i := range v.entries {
		if v.entries[i].Rec.ID == id {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			return true
		}
	}
	return false
}

// RemoveVia drops every entry learned from the given peer (and the
// peer's own record, however it arrived), returning the dropped records —
// the conviction-driven eviction of a poisoned source's contributions.
func (v *View) RemoveVia(peer graph.NodeID) []Record {
	var dropped []Record
	kept := v.entries[:0]
	for _, e := range v.entries {
		if e.Via == peer || e.Rec.ID == peer {
			dropped = append(dropped, e.Rec)
		} else {
			kept = append(kept, e)
		}
	}
	v.entries = kept
	return dropped
}

// SelectPartner picks this round's exchange partner among held subjects
// satisfying eligible: uniformly for rand/pushpull, freshest-first for
// head, oldest-first for tail. It returns false when no held subject is
// eligible.
func (v *View) SelectPartner(r *rng.Rand, policy Policy, eligible func(graph.NodeID) bool) (graph.NodeID, bool) {
	var pool []Entry
	for _, e := range v.entries {
		if eligible == nil || eligible(e.Rec.ID) {
			pool = append(pool, e)
		}
	}
	if len(pool) == 0 {
		return 0, false
	}
	switch policy {
	case PolicyHead:
		return pool[0].Rec.ID, true
	case PolicyTail:
		return pool[len(pool)-1].Rec.ID, true
	default: // rand, pushpull
		return pool[r.Intn(len(pool))].Rec.ID, true
	}
}

// SelectRecords picks up to fanout records to ship: records must have
// hop < maxHop (so the transfer increment keeps them within the decay
// horizon) and a subject other than skip (shipping the partner its own
// record is dead weight). Rand/pushpull draw a uniform subset; head takes
// the freshest, tail the oldest.
func (v *View) SelectRecords(r *rng.Rand, policy Policy, fanout, maxHop int, skip graph.NodeID) []Record {
	var pool []Record
	for _, e := range v.entries {
		if e.Rec.Hop < maxHop && e.Rec.ID != skip {
			pool = append(pool, e.Rec)
		}
	}
	if fanout >= len(pool) {
		return pool
	}
	switch policy {
	case PolicyHead:
		return pool[:fanout]
	case PolicyTail:
		return pool[len(pool)-fanout:]
	default: // rand, pushpull
		idx := r.Perm(len(pool))[:fanout]
		sort.Ints(idx)
		out := make([]Record, fanout)
		for i, j := range idx {
			out[i] = pool[j]
		}
		return out
	}
}
