package node

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPresentIndexAgainstReference drives the Fenwick index through
// random add/remove sequences — crossing several growth boundaries —
// and checks every operation against a plain sorted-slice model.
func TestPresentIndexAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		idx := newPresentIndex()
		ref := map[graph.NodeID]bool{}
		for step := 0; step < 400; step++ {
			id := graph.NodeID(r.Intn(3000))
			if r.Bool(0.6) {
				idx.Add(id)
				ref[id] = true
			} else {
				idx.Remove(id)
				delete(ref, id)
			}
			if idx.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, idx.Len(), len(ref))
			}
			if idx.Contains(id) != ref[id] {
				t.Fatalf("seed %d step %d: Contains(%d) = %v", seed, step, id, idx.Contains(id))
			}
		}
		ids := make([]graph.NodeID, 0, len(ref))
		for id := range ref {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for k, want := range ids {
			if got := idx.Select(k); got != want {
				t.Fatalf("seed %d: Select(%d) = %d, want %d", seed, k, got, want)
			}
			if got := idx.Rank(want); got != k {
				t.Fatalf("seed %d: Rank(%d) = %d, want %d", seed, want, got, k)
			}
		}
		// Rank of arbitrary (possibly absent) IDs, including past the
		// universe end.
		for _, probe := range []graph.NodeID{0, 1, 7, 1500, 2999, 5000} {
			want := 0
			for _, id := range ids {
				if id < probe {
					want++
				}
			}
			if got := idx.Rank(probe); got != want {
				t.Fatalf("seed %d: Rank(%d) = %d, want %d", seed, probe, got, want)
			}
		}
	}
}

func TestPresentIndexEdgeCases(t *testing.T) {
	idx := newPresentIndex()
	idx.Add(0)
	if idx.Rank(0) != 0 || !idx.Contains(0) || idx.Select(0) != 0 {
		t.Fatalf("ID 0 mishandled: rank %d contains %v", idx.Rank(0), idx.Contains(0))
	}
	idx.Add(0) // idempotent
	if idx.Len() != 1 {
		t.Fatalf("double Add changed Len to %d", idx.Len())
	}
	idx.Remove(9999) // out of universe: no-op
	idx.Remove(3)    // dead: no-op
	if idx.Len() != 1 {
		t.Fatalf("no-op removes changed Len to %d", idx.Len())
	}
	idx.Add(1 << 14) // growth by many doublings at once
	if !idx.Contains(1<<14) || idx.Select(1) != 1<<14 || idx.Rank(1<<14) != 1 {
		t.Fatalf("post-growth state wrong: %d live", idx.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Select past Len did not panic")
		}
	}()
	idx.Select(2)
}

// scanCandidates is the reference the sampler must match: the retired
// O(present) scan, verbatim. Pass v to exclude view members (refresh);
// nil for bootstrap.
func scanCandidates(w *World, self graph.NodeID, v *pex.View) []graph.NodeID {
	var out []graph.NodeID
	for _, id := range w.Present() {
		if id != self && w.Proc(id) != nil && w.pex.find(self).blocked[id] == 0 && (v == nil || !v.Contains(id)) {
			out = append(out, id)
		}
	}
	return out
}

// blacklistPairs lists the directed (by, offender) blacklist entries the
// per-entity records hold.
func blacklistPairs(px *pexLayer) [][2]graph.NodeID {
	var out [][2]graph.NodeID
	px.peers.Each(func(by graph.NodeID, pp *pexPeer) {
		for offender, dirs := range pp.blocked {
			if dirs&blockedOut != 0 {
				out = append(out, [2]graph.NodeID{by, offender})
			}
		}
	})
	return out
}

// checkSamplerConsistency cross-checks, for every live entity, the
// indexed candidate population against the reference scan at EVERY
// index, for both the bootstrap and the refresh population — plus the
// structural invariants: the present index holds exactly the live
// procs, and each record's blocked set mirrors the directed blacklist
// from both ends.
func checkSamplerConsistency(t *testing.T, w *World, tag string) {
	t.Helper()
	px := w.pex
	live := make([]graph.NodeID, 0, w.procs.Len())
	w.procs.Each(func(id graph.NodeID, _ *Proc) { live = append(live, id) })
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	if px.idx.Len() != len(live) {
		t.Fatalf("%s: index holds %d, %d procs live", tag, px.idx.Len(), len(live))
	}
	for k, id := range live {
		if !px.idx.Contains(id) || px.idx.Select(k) != id {
			t.Fatalf("%s: index diverged from procs at %d", tag, id)
		}
	}
	adj := map[graph.NodeID]map[graph.NodeID]int{}
	for _, pair := range blacklistPairs(px) {
		for _, pr := range [2][2]graph.NodeID{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			if adj[pr[0]] == nil {
				adj[pr[0]] = map[graph.NodeID]int{}
			}
			adj[pr[0]][pr[1]]++
		}
	}
	blocking := 0
	px.peers.Each(func(_ graph.NodeID, pp *pexPeer) {
		if len(pp.blocked) > 0 {
			blocking++
		}
	})
	if len(adj) != blocking {
		t.Fatalf("%s: %d entities hold blocked peers, blacklist implies %d", tag, blocking, len(adj))
	}
	for id, m := range adj {
		for q, n := range m {
			if got := bits.OnesCount8(px.find(id).blocked[q]); got != n {
				t.Fatalf("%s: blocked[%d][%d] holds %d directions, want %d", tag, id, q, got, n)
			}
		}
	}
	for _, id := range live {
		for _, v := range []*pex.View{nil, px.viewOf(id)} {
			want := scanCandidates(w, id, v)
			cs := px.candidates(id, v)
			if cs.count() != len(want) {
				t.Fatalf("%s: entity %d count %d, scan found %d", tag, id, cs.count(), len(want))
			}
			for j, wc := range want {
				if got := cs.at(j); got != wc {
					t.Fatalf("%s: entity %d candidate %d = %d, scan holds %d", tag, id, j, got, wc)
				}
			}
		}
	}
}

// TestPexSamplerMatchesScan is the differential guard for the indexed
// sampler: a world churned through joins, leaves, crashes, recoveries,
// quarantines and pardons — with live exchange rounds filling views in
// between — must present, at every step, candidate populations
// bit-identical to the retired scan at every single index.
func TestPexSamplerMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		e := sim.New()
		w := NewWorld(e, topology.NewManual(), nil,
			Config{Seed: seed, Pex: pex.Config{Enabled: true, MaxHop: 8}})
		n := 24
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		w.PexSeedViews(topology.BuildRing(n))
		r := rng.New(seed * 77)
		next := graph.NodeID(n + 1)
		crashed := map[graph.NodeID]bool{}
		for step := 0; step < 120; step++ {
			e.RunUntil(e.Now() + sim.Time(1+r.Intn(4)))
			present := w.Present()
			var id graph.NodeID
			if len(present) > 0 {
				id = present[r.Intn(len(present))]
			}
			switch op := r.Intn(6); {
			case op == 0:
				w.Join(next)
				next++
			case op == 1 && len(present) > 1 && w.Proc(id) != nil:
				w.Leave(id)
			case op == 2 && len(present) > 1 && w.Proc(id) != nil:
				w.Crash(id)
				crashed[id] = true
			case op == 3 && len(crashed) > 0:
				for cid := range crashed {
					if w.Proc(cid) == nil {
						w.Recover(cid)
					}
					delete(crashed, cid)
					break
				}
			case op == 4 && len(present) > 1:
				other := present[r.Intn(len(present))]
				if other != id {
					w.pex.onQuarantine(w, id, other)
				}
			case op == 5:
				for _, pair := range blacklistPairs(w.pex) {
					w.pex.pardon(pair[0], pair[1])
					break
				}
			}
			checkSamplerConsistency(t, w, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// TestPexRefreshPickMatchesScan pins the full refresh draw — not just
// the population — against the scan: same rng state, the scan-based
// pick and the indexed pick are the same entity.
func TestPexRefreshPickMatchesScan(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), nil,
		Config{Seed: 11, Pex: pex.Config{Enabled: true}})
	for i := 1; i <= 40; i++ {
		w.Join(graph.NodeID(i))
	}
	w.PexSeedViews(topology.BuildRing(40))
	e.RunUntil(60)
	w.pex.onQuarantine(w, 3, 7)
	w.pex.onQuarantine(w, 12, 3)
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		self := graph.NodeID(1 + r.Intn(40))
		if w.Proc(self) == nil {
			continue
		}
		v := w.pex.viewOf(self)
		want := scanCandidates(w, self, v)
		cs := w.pex.candidates(self, v)
		if cs.count() != len(want) {
			t.Fatalf("entity %d: count %d vs scan %d", self, cs.count(), len(want))
		}
		if len(want) == 0 {
			continue
		}
		j := r.Intn(len(want))
		if got := cs.at(j); got != want[j] {
			t.Fatalf("entity %d draw %d: indexed pick %d, scan pick %d", self, j, got, want[j])
		}
	}
}

// BenchmarkPexRefreshSample measures one refresh-population sample
// (candidate assembly + exclusion-adjusted pick) at growing populations.
// The point of the present index is that this stays flat from n=1k to
// n=100k — the retired scan was linear in n per call.
func BenchmarkPexRefreshSample(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := sim.New()
			w := NewWorld(e, topology.NewManual(), nil,
				Config{Seed: 5, Pex: pex.Config{Enabled: true}})
			for i := 1; i <= n; i++ {
				w.Join(graph.NodeID(i))
			}
			w.PexSeedViews(topology.BuildRing(n))
			px := w.pex
			self := graph.NodeID(1)
			v := px.viewOf(self)
			r := rng.New(42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs := px.candidates(self, v)
				if m := cs.count(); m > 0 {
					_ = cs.at(r.Intn(m))
				}
			}
		})
	}
}
