package pex

import (
	"slices"

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
	// evicted holds the record the last evicting Merge dropped; Merge
	// hands out a pointer to it rather than to a fresh copy.
	evicted Record
}

// NewView returns an empty view bounded at cap entries, their storage
// allocated once: Merge never grows it.
func NewView(cap int) *View { return &View{cap: cap, entries: make([]Entry, 0, cap)} }

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

// before reports whether a sorts before b in (hop, ID) order — a strict
// total order over a view's entries, whose IDs are unique.
func before(a, b Record) bool {
	return a.Hop < b.Hop || (a.Hop == b.Hop && a.ID < b.ID)
}

// place moves entries[i], the one entry whose record just changed, to its
// (hop, ID) position; every other entry is already in order, so one
// insertion pass restores exactly the order a full sort would.
func (v *View) place(i int) {
	es := v.entries
	e := es[i]
	for ; i > 0 && before(e.Rec, es[i-1].Rec); i-- {
		es[i] = es[i-1]
	}
	for ; i < len(es)-1 && before(es[i+1].Rec, e.Rec); i++ {
		es[i] = es[i+1]
	}
	es[i] = e
}

// Age increments every record's hop count (one cadence round passed) and
// decays records past maxHop out of the view, appending the dropped
// records to dst and returning the extended slice — the oldest-first
// forgetting that clears departed members. A hot caller reuses one
// buffer across calls, as with AppendRecords.
func (v *View) Age(dst []Record, maxHop int) []Record {
	kept := v.entries[:0]
	for i := range v.entries {
		v.entries[i].Rec.Hop++
		if int(v.entries[i].Rec.Hop) > maxHop {
			dst = append(dst, v.entries[i].Rec)
		} else {
			kept = append(kept, v.entries[i])
		}
	}
	v.entries = kept
	// Uniform increment preserves the (hop, ID) order; no resort needed.
	return dst
}

// Merge folds one accepted entry in. A record of a subject already held
// replaces the old one if it is strictly fresher (higher epoch) or
// equally fresh but fewer hops away; when the view is full, the oldest
// entry (highest hop, then highest ID) is evicted to make room — unless
// the newcomer is itself the oldest, in which case it is the one dropped.
// It reports whether the entry was folded in, and returns the evicted
// record, if any; the record it points at stays valid until the next
// Merge.
func (v *View) Merge(e Entry) (merged bool, evicted *Record) {
	for i := range v.entries {
		if v.entries[i].Rec.ID != e.Rec.ID {
			continue
		}
		old := v.entries[i].Rec
		if e.Rec.Epoch > old.Epoch || (e.Rec.Epoch == old.Epoch && e.Rec.Hop < old.Hop) {
			v.entries[i] = e
			v.place(i)
			return true, nil
		}
		return false, nil
	}
	if len(v.entries) < v.cap {
		v.entries = append(v.entries, e)
		v.place(len(v.entries) - 1)
		return true, nil
	}
	// Full: evict oldest-first. Entries are sorted, so the victim is the
	// last one — unless the newcomer is older still.
	last := len(v.entries) - 1
	if !before(e.Rec, v.entries[last].Rec) {
		return false, nil
	}
	v.evicted = v.entries[last].Rec
	v.entries[last] = e
	v.place(last)
	return true, &v.evicted
}

// RemoveVia drops every entry learned from the given peer (and the
// peer's own record, however it arrived), appending the dropped records
// to dst and returning the extended slice — the conviction-driven
// eviction of a poisoned source's contributions.
func (v *View) RemoveVia(dst []Record, peer graph.NodeID) []Record {
	kept := v.entries[:0]
	for _, e := range v.entries {
		if e.Via == peer || e.Rec.ID == peer {
			dst = append(dst, e.Rec)
		} else {
			kept = append(kept, e)
		}
	}
	v.entries = kept
	return dst
}

// SelectPartner picks this round's exchange partner among held subjects
// satisfying eligible: uniformly for rand/pushpull, freshest-first for
// head, oldest-first for tail. It returns false when no held subject is
// eligible.
func (v *View) SelectPartner(r *rng.Rand, policy Policy, eligible func(graph.NodeID) bool) (graph.NodeID, bool) {
	var stack [32]graph.NodeID // views this size or smaller pool on the stack
	pool := stack[:0]
	for _, e := range v.entries {
		if eligible == nil || eligible(e.Rec.ID) {
			pool = append(pool, e.Rec.ID)
		}
	}
	if len(pool) == 0 {
		return 0, false
	}
	switch policy {
	case PolicyHead:
		return pool[0], true
	case PolicyTail:
		return pool[len(pool)-1], true
	default: // rand, pushpull
		return pool[r.Intn(len(pool))], true
	}
}

// AppendRecords appends up to fanout records to ship to dst and returns
// the extended slice, so a hot caller can reuse one buffer across calls.
// Records must have hop < maxHop (so the transfer increment keeps them
// within the decay horizon) and a subject other than skip (shipping the
// partner its own record is dead weight). Rand/pushpull draw a uniform
// subset; head takes the freshest, tail the oldest. Picks keep the view's
// (hop, ID) order. The eligible records are gathered after dst's existing
// elements, then the picks are compacted to the start of that run.
func (v *View) AppendRecords(dst []Record, r *rng.Rand, policy Policy, fanout, maxHop int, skip graph.NodeID) []Record {
	base := len(dst)
	for _, e := range v.entries {
		if int(e.Rec.Hop) < maxHop && e.Rec.ID != skip {
			dst = append(dst, e.Rec)
		}
	}
	pool := dst[base:]
	if fanout >= len(pool) {
		return dst
	}
	switch policy {
	case PolicyHead: // the freshest already lead the pool
	case PolicyTail:
		copy(pool, pool[len(pool)-fanout:])
	default: // rand, pushpull
		var stack [32]int // pools this size or smaller permute on the stack
		perm := slices.Grow(stack[:0], len(pool))[:len(pool)]
		r.PermInto(perm)
		idx := perm[:fanout]
		slices.Sort(idx)
		// idx ascends, so idx[i] >= i: each pick is read before any
		// earlier pick can overwrite its slot.
		for i, j := range idx {
			pool[i] = pool[j]
		}
	}
	return dst[:base+fanout]
}
