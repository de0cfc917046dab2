package pex

import (
	"cmp"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refView carries the view operations that insertion-placed merging and
// buffer-reusing selection replaced — a full re-sort after every merge,
// freshly allocated selection pools, Perm — kept (their bodies verbatim)
// as the reference the replacements must agree with.
type refView struct {
	cap     int
	entries []Entry
}

func (v *refView) resort() {
	slices.SortFunc(v.entries, func(a, b Entry) int {
		if c := cmp.Compare(a.Rec.Hop, b.Rec.Hop); c != 0 {
			return c
		}
		return cmp.Compare(a.Rec.ID, b.Rec.ID)
	})
}

func (v *refView) Merge(e Entry) (merged bool, evicted *Record) {
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
	last := v.entries[len(v.entries)-1].Rec
	if e.Rec.Hop > last.Hop || (e.Rec.Hop == last.Hop && e.Rec.ID >= last.ID) {
		return false, nil
	}
	v.entries[len(v.entries)-1] = e
	v.resort()
	return true, &last
}

func (v *refView) SelectPartner(r *rng.Rand, policy Policy, eligible func(graph.NodeID) bool) (graph.NodeID, bool) {
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

func (v *refView) SelectRecords(r *rng.Rand, policy Policy, fanout, maxHop int, skip graph.NodeID) []Record {
	var pool []Record
	for _, e := range v.entries {
		if int(e.Rec.Hop) < maxHop && e.Rec.ID != skip {
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

var policies = []Policy{PolicyRand, PolicyHead, PolicyTail, PolicyPushPull}

// TestViewMatchesReference streams seeded random merges into a view and
// the reference — fresher, staler and equal claims of held subjects, and
// newcomers into full views, over caps of 1..12 and of 40 (past the
// selection's 32-slot stack pools) — with an occasional Age in between, and
// requires identical entries, merge verdicts and evicted records after
// every step. After each step every policy must pick the same partner
// (under a random eligibility filter) and the same records (under random
// fanout, hop bound and skipped subject, appended onto a non-empty buffer
// too) from identically seeded rngs, and leave them in the same state.
func TestViewMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		capacity := 1 + int(seed%12)
		if seed%20 == 0 {
			capacity = 40
		}
		ids := capacity + 1 + r.Intn(2*capacity)
		v, ref := NewView(capacity), &refView{cap: capacity}
		for step := 0; step < 150; step++ {
			if r.Intn(10) == 0 {
				got := v.Age(nil, 12)
				for i := range ref.entries {
					ref.entries[i].Rec.Hop++
				}
				var want []Record
				kept := ref.entries[:0]
				for _, e := range ref.entries {
					if e.Rec.Hop <= 12 {
						kept = append(kept, e)
					} else {
						want = append(want, e.Rec)
					}
				}
				ref.entries = kept
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Age dropped %+v, want %+v", seed, step, got, want)
				}
			} else {
				e := Entry{
					Rec: Record{ID: graph.NodeID(1 + r.Intn(ids)), Hop: int32(r.Intn(12)), Epoch: int64(r.Intn(4))},
					Via: graph.NodeID(r.Intn(5)),
				}
				got, gotEv := v.Merge(e)
				want, wantEv := ref.Merge(e)
				if got != want || (gotEv == nil) != (wantEv == nil) || (gotEv != nil && *gotEv != *wantEv) {
					t.Fatalf("seed %d step %d: Merge(%+v) = %v,%v, want %v,%v", seed, step, e, got, gotEv, want, wantEv)
				}
			}
			if !slices.Equal(v.Entries(), ref.entries) {
				t.Fatalf("seed %d step %d: entries %+v, want %+v", seed, step, v.Entries(), ref.entries)
			}
			for _, policy := range policies {
				draw := r.Uint64()
				bar := graph.NodeID(r.Intn(ids + 1))
				eligible := func(id graph.NodeID) bool { return id%3 != bar%3 }
				if r.Intn(4) == 0 {
					eligible = nil
				}
				ra, rb := rng.New(draw), rng.New(draw)
				gotID, gotOK := v.SelectPartner(ra, policy, eligible)
				wantID, wantOK := ref.SelectPartner(rb, policy, eligible)
				if gotID != wantID || gotOK != wantOK || ra.Uint64() != rb.Uint64() {
					t.Fatalf("seed %d step %d %s: SelectPartner = %d,%v, want %d,%v (or the rngs diverged)",
						seed, step, policy, gotID, gotOK, wantID, wantOK)
				}

				fanout, maxHop, skip := r.Intn(capacity+2), 1+r.Intn(13), graph.NodeID(r.Intn(ids+1))
				ra, rb, rc := rng.New(draw), rng.New(draw), rng.New(draw)
				got := v.AppendRecords(nil, ra, policy, fanout, maxHop, skip)
				want := ref.SelectRecords(rb, policy, fanout, maxHop, skip)
				next := rb.Uint64()
				if !slices.Equal(got, want) || ra.Uint64() != next {
					t.Fatalf("seed %d step %d %s: AppendRecords(%d, %d, %d) = %+v, want %+v (or the rngs diverged)",
						seed, step, policy, fanout, maxHop, skip, got, want)
				}
				prefix := []Record{{ID: -1}, {ID: -2}}
				appended := v.AppendRecords(slices.Clone(prefix), rc, policy, fanout, maxHop, skip)
				if !slices.Equal(appended, append(prefix, want...)) || rc.Uint64() != next {
					t.Fatalf("seed %d step %d %s: AppendRecords onto %+v = %+v, want the prefix then %+v (or the rngs diverged)",
						seed, step, policy, prefix, appended, want)
				}
			}
		}
	}
}

// TestPermIntoMatchesPerm requires PermInto to fill exactly the
// permutation Perm returns, draw for draw, leaving the rng in the same
// state.
func TestPermIntoMatchesPerm(t *testing.T) {
	for n := 0; n <= 70; n++ {
		a, b := rng.New(uint64(n)), rng.New(uint64(n))
		want := a.Perm(n)
		got := make([]int, n)
		b.PermInto(got)
		if !slices.Equal(got, want) || a.Uint64() != b.Uint64() {
			t.Fatalf("PermInto over %d = %v, want Perm's %v (or the rngs diverged)", n, got, want)
		}
	}
}
