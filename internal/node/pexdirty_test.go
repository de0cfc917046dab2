package node

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// pexWanted is reconcile's keep predicate, evaluated from scratch: the
// edge {a, b} is wanted while neither side has blocked the other and b is
// in a's view or a in b's.
func pexWanted(px *pexLayer, a, b graph.NodeID) bool {
	if pp := px.find(a); pp != nil && pp.blocked[b] != 0 {
		return false
	}
	if v := px.viewOf(a); v != nil && v.Contains(b) {
		return true
	}
	v := px.viewOf(b)
	return v != nil && v.Contains(a)
}

// dirtyGap returns the first unwanted edge of a running entity whose far
// end is missing from the entity's dirty list, described, or "" when every
// such edge is listed — the invariant that lets reconcile re-examine only
// the dirty list and still cut every edge a walk of all neighbours would.
func dirtyGap(w *World) string {
	g := w.Overlay.Graph()
	for _, id := range running(w) {
		pp := w.pex.find(id)
		for _, u := range g.Neighbors(id) {
			if !pexWanted(w.pex, id, u) && !slices.Contains(pp.dirty, u) {
				return fmt.Sprintf("edge {%d, %d} is unwanted but %d is not on %d's dirty list %v",
					id, u, u, id, pp.dirty)
			}
		}
	}
	return ""
}

// pendingGap returns the first unblocked view member of a running entity
// that has no edge to it and is missing from its pending list, described,
// or "" when every such member is listed — the invariant that lets
// reconcile link from the pending list alone and still bring up every
// link a walk of the whole view would.
func pendingGap(w *World) string {
	g := w.Overlay.Graph()
	for _, id := range running(w) {
		pp := w.pex.find(id)
		for _, e := range pp.view.Entries() {
			u := e.Rec.ID
			if pp.blocked[u] == 0 && !g.HasEdge(id, u) && !slices.Contains(pp.pending, u) {
				return fmt.Sprintf("%d is an unblocked, unlinked member of %d's view but not on its pending list %v",
					u, id, pp.pending)
			}
		}
	}
	return ""
}

// running returns the entities running now, ascending: the overlay's
// nodes less the crashed ones, whose edges outlive them.
func running(w *World) []graph.NodeID {
	return slices.DeleteFunc(w.Present(), func(id graph.NodeID) bool { return w.Proc(id) == nil })
}

// dirtyDriver scripts a small pex world one operation at a time and
// checks the dirty-list and pending-list invariants after each one, and
// after every tick of the time it lets pass. Operands pick among the present (or crashed,
// or blacklisted) entities by index, so any byte is a valid operand.
type dirtyDriver struct {
	t       testing.TB
	e       *sim.Engine
	w       *World
	next    graph.NodeID
	crashed []graph.NodeID
	where   string
}

// dirtyOps is the number of operation codes apply knows.
const dirtyOps = 12

func newDirtyDriver(t testing.TB, cfg Config, n int) *dirtyDriver {
	d := &dirtyDriver{t: t, e: sim.New(), next: graph.NodeID(n + 1)}
	d.w = NewWorld(d.e, topology.NewManual(), nil, cfg)
	for i := 1; i <= n; i++ {
		d.w.Join(graph.NodeID(i))
	}
	d.w.PexSeedViews(topology.BuildRing(n))
	d.check("after seeding")
	return d
}

func (d *dirtyDriver) check(what string) {
	d.t.Helper()
	for _, gap := range []string{dirtyGap(d.w), pendingGap(d.w)} {
		if gap != "" {
			d.t.Fatalf("%s, %s at t=%d: %s", d.where, what, d.e.Now(), gap)
		}
	}
}

// pick returns the running entity operand x selects, or false when there
// is none.
func (d *dirtyDriver) pick(x byte) (graph.NodeID, bool) {
	present := running(d.w)
	if len(present) == 0 {
		return 0, false
	}
	return present[int(x)%len(present)], true
}

// run lets ticks pass one at a time, checking after each.
func (d *dirtyDriver) run(ticks int) {
	d.t.Helper()
	for i := 0; i < ticks; i++ {
		d.e.RunUntil(d.e.Now() + 1)
		d.check("after a tick")
	}
}

// apply performs operation op (mod dirtyOps) on operands a and b.
func (d *dirtyDriver) apply(op, a, b byte) {
	d.t.Helper()
	w := d.w
	x, okx := d.pick(a)
	y, oky := d.pick(b)
	switch op % dirtyOps {
	case 0: // a fresh joiner, bootstrapped at its first round
		w.Join(d.next)
		d.next++
	case 1: // leave
		if okx && len(running(w)) > 2 {
			w.Leave(x)
		}
	case 2: // crash: the edges stay in the overlay
		if okx && len(running(w)) > 2 {
			w.Crash(x)
			d.crashed = append(d.crashed, x)
		}
	case 3: // recover the operand's crashed entity
		if len(d.crashed) > 0 {
			i := int(a) % len(d.crashed)
			id := d.crashed[i]
			d.crashed = slices.Delete(d.crashed, i, i+1)
			if w.Proc(id) == nil {
				w.Recover(id)
			}
		}
	case 4: // the rejoin fault: leave, come back, get the old links back
		if okx {
			old := w.Overlay.Graph().Neighbors(x)
			w.Leave(x)
			w.Join(x)
			for _, u := range old {
				if w.Proc(u) != nil {
					w.SetLink(x, u, true)
				}
			}
		}
	case 5: // quarantine
		if okx && oky && x != y {
			w.pex.onQuarantine(w, x, y)
		}
	case 6: // pardon the operand's blacklisted pair
		if pairs := blacklistPairs(w.pex); len(pairs) > 0 {
			p := pairs[int(a)%len(pairs)]
			w.pex.pardon(p[0], p[1])
		}
	case 7: // an external link, wanted by no view as likely as not
		if okx && oky {
			w.SetLink(x, y, true)
		}
	case 8: // an external unlink
		if okx && oky {
			w.SetLink(x, y, false)
		}
	case 9: // reseed every view from a ring over the running entities
		present := running(w)
		g := graph.New()
		for i, id := range present {
			if len(present) > 1 {
				g.AddEdge(id, present[(i+1+int(a)%(len(present)-1))%len(present)])
			}
		}
		w.PexSeedViews(g)
	case 10: // poison: forged records from x to a neighbour of it
		if nbrs := w.Overlay.Graph().Neighbors(x); okx && len(nbrs) > 0 {
			to := nbrs[int(b)%len(nbrs)]
			forged := pex.Record{ID: 5000 + graph.NodeID(b), Epoch: int64(d.e.Now()), Sig: 0xbad}
			pexAttack(w, x, to, 1+int(a)%4, forged)
		}
	default: // let one to two cadence rounds pass
		d.run(1 + int(a)%(2*int(w.pex.cfg.Cadence)))
		return
	}
	d.check(fmt.Sprintf("after op %d(%d, %d)", op%dirtyOps, a, b))
}

var dirtyPolicies = []pex.Policy{pex.PolicyRand, pex.PolicyHead, pex.PolicyTail, pex.PolicyPushPull}

// dirtyConfig builds a pex world's config from a few knobs: small views,
// several bootstrap contacts and a short refresh period make every
// eviction path fire; defended adds the view audit over auth with parole,
// so poison ends in quarantines and paroles end them.
func dirtyConfig(seed uint64, policy pex.Policy, view, contacts, maxHop int, defended bool) Config {
	cfg := Config{
		Seed: seed, MinLatency: 1, MaxLatency: 2,
		Pex: pex.Config{
			Enabled: true, Policy: policy, ViewSize: view, Fanout: min(view, 3),
			BootstrapContacts: contacts, MaxHop: maxHop, RefreshEvery: 3, SampleEvery: 1 << 20,
		},
	}
	if defended {
		cfg.Auth = AuthConfig{Enabled: true, Parole: 30}
		cfg.Pex.Audit = pex.ViewAuditConfig{Enabled: true, KeySeed: 3, Budget: 1}
	}
	return cfg
}

// TestReconcileDirtyCoversUnwanted steps churned pex worlds tick by tick
// — every policy, several seeds, view sizes down to one record with more
// bootstrap contacts than that, undefended and under audit with poison —
// through joins, leaves, crashes and recoveries, rejoins that get their
// old links back by direct link control, quarantines, pardons, external
// links and unlinks and mid-run reseeding. After every operation and
// every tick, each unwanted edge of a present entity must be on that
// entity's dirty list, and each unblocked view member it has no edge to
// on its pending list.
func TestReconcileDirtyCoversUnwanted(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, policy := range dirtyPolicies {
			for _, defended := range []bool{false, true} {
				r := rng.New(seed*131 + uint64(len(policy)))
				view := []int{1, 2, 3, 8}[r.Intn(4)]
				cfg := dirtyConfig(seed, policy, view, 1+r.Intn(3), 3+r.Intn(6), defended)
				d := newDirtyDriver(t, cfg, 16+r.Intn(16))
				d.where = fmt.Sprintf("seed %d %s view %d defended %v", seed, policy, view, defended)
				for step := 0; step < 150; step++ {
					op := byte(r.Intn(dirtyOps + 4)) // mostly time passing
					d.apply(op, byte(r.Intn(256)), byte(r.Intn(256)))
				}
				tot := d.w.PexTotals()
				if tot.Unlinks == 0 || tot.Links == 0 {
					t.Fatalf("%s: the reconciler never flipped an edge both ways: %+v", d.where, tot)
				}
			}
		}
	}
}

// FuzzPexReconcile drives a pex world through a byte-coded script — the
// first bytes pick policy, view size, bootstrap contacts, hop horizon and
// defense; every three bytes after that are one operation and its two
// operands (see dirtyDriver.apply) — and checks the dirty-list and
// pending-list invariants after every operation and tick.
func FuzzPexReconcile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 4, 0, 11, 3, 0, 7, 1, 2, 11, 9, 0})
	f.Add([]byte{1, 0, 1, 5, 1, 10, 2, 3, 11, 7, 0, 5, 1, 4, 11, 5, 0})
	f.Add([]byte{2, 2, 0, 3, 0, 2, 4, 0, 11, 8, 0, 3, 0, 0, 11, 6, 0, 4, 2, 0, 11, 9, 0})
	f.Add([]byte{3, 7, 2, 8, 1, 9, 1, 0, 11, 3, 0, 6, 0, 0, 11, 7, 0, 8, 3, 1, 11, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 5 {
			return
		}
		cfg := dirtyConfig(uint64(script[0])+1, dirtyPolicies[script[0]%4], 1+int(script[1]%8),
			1+int(script[2]%3), 2+int(script[3]%8), script[4]%2 == 1)
		d := newDirtyDriver(t, cfg, 6+int(script[1]/8)%10)
		d.where = fmt.Sprintf("script %v", script)
		ops := script[5:]
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			d.apply(ops[i], ops[i+1], ops[i+2])
		}
		d.run(2 * int(d.w.pex.cfg.Cadence))
	})
}
