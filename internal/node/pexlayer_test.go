package node

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PexQuarantineEvents returns the view-layer quarantines in order.
func (w *World) PexQuarantineEvents() []QuarantineEvent {
	if w.pex == nil {
		return nil
	}
	return append([]QuarantineEvent(nil), w.pex.events...)
}

// PexBlacklisted reports whether by has blacklisted offender's records.
func (w *World) PexBlacklisted(by, offender graph.NodeID) bool {
	return w.pex != nil && w.pex.blacklisted(by, offender)
}

func pexWorld(t *testing.T, n int, cfg Config) (*sim.Engine, *World) {
	t.Helper()
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), nil, cfg)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	return e, w
}

func TestPexNeedsLinkControl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewWorld accepted a pex config on an overlay without link control")
		}
	}()
	NewWorld(sim.New(), topology.NewRing(0), nil, Config{Pex: pex.Config{Enabled: true}})
}

// TestPexConvergesFromRingSeed: seed each entity's view with its two ring
// neighbors and let pushpull exchanges spread the membership; the overlay
// must reach (and hold) full connectivity, recorded by the sampler and
// the convergence mark.
func TestPexConvergesFromRingSeed(t *testing.T) {
	e, w := pexWorld(t, 16, Config{Seed: 1, Pex: pex.Config{Enabled: true}})
	w.PexSeedViews(topology.BuildRing(16))
	e.RunUntil(200)
	if at := w.PexConvergedAt(); at < 0 {
		t.Fatalf("overlay never converged: %+v", w.PexSamples())
	}
	samples := w.PexSamples()
	if len(samples) == 0 {
		t.Fatalf("sampler recorded nothing")
	}
	last := samples[len(samples)-1]
	if !last.Connected || last.Present != 16 {
		t.Fatalf("final sample not connected: %+v", last)
	}
	if last.SybilEntries != 0 || last.DeadEntries != 0 {
		t.Fatalf("phantom entries without an attack: %+v", last)
	}
	if _, ok := w.Trace.FirstMark(core.MarkPexConverged); !ok {
		t.Fatalf("no %s mark in the trace", core.MarkPexConverged)
	}
	tot := w.PexTotals()
	if tot.Exchanges == 0 || tot.RecordsMerged == 0 || tot.Links == 0 {
		t.Fatalf("suspiciously idle overlay: %+v", tot)
	}
}

// TestPexBootstrapsLateJoiner: an un-seeded newcomer is introduced to
// bootstrap contacts and woven into the overlay by the exchanges.
func TestPexBootstrapsLateJoiner(t *testing.T) {
	e, w := pexWorld(t, 8, Config{Seed: 2, Pex: pex.Config{Enabled: true}})
	w.PexSeedViews(topology.BuildRing(8))
	e.RunUntil(60)
	before := w.PexTotals().Bootstraps
	w.Join(9)
	e.RunUntil(70) // the joiner's first round bootstraps it
	if got := len(w.Overlay.Graph().Neighbors(9)); got == 0 {
		t.Fatalf("joiner got no bootstrap links")
	}
	if got := w.PexTotals().Bootstraps; got != before+1 {
		t.Fatalf("bootstraps = %d, want %d", got, before+1)
	}
	e.RunUntil(200)
	inViews := 0
	for _, id := range w.Present() {
		if id == 9 {
			continue
		}
		for _, r := range w.PexView(id) {
			if r.ID == 9 {
				inViews++
			}
		}
	}
	if inViews == 0 {
		t.Fatalf("nobody learned about the joiner")
	}
	g := w.Overlay.Graph()
	if comps := g.Components(); len(comps) != 1 {
		t.Fatalf("joiner still outside the main component: %v", comps)
	}
}

// TestPexForgetsTheDeparted: records of a departed member age out of
// every view within the decay horizon — the self-healing half of the
// membership protocol.
func TestPexForgetsTheDeparted(t *testing.T) {
	e, w := pexWorld(t, 8, Config{Seed: 3, Pex: pex.Config{Enabled: true}})
	w.PexSeedViews(topology.BuildRing(8))
	e.RunUntil(100)
	w.Leave(4)
	e.RunUntil(400)
	for _, id := range w.Present() {
		for _, r := range w.PexView(id) {
			if r.ID == 4 {
				t.Fatalf("entity %d still holds the departed 4: %+v", id, r)
			}
		}
	}
	samples := w.PexSamples()
	if last := samples[len(samples)-1]; last.DeadEntries != 0 || !last.Connected {
		t.Fatalf("final sample: %+v", last)
	}
	if got := len(w.DepartedEntities()); got != 1 {
		t.Fatalf("departed = %v", w.DepartedEntities())
	}
}

// pexAttack sends count hand-crafted exchanges from the attacker to the
// victim, each carrying one record. Raw Proc.Send is the injection
// surface a Byzantine member controls anyway (the poison clause rewrites
// honest exchanges the same way).
func pexAttack(w *World, from, to graph.NodeID, count int, rec pex.Record) {
	p := w.Proc(from)
	for i := 0; i < count; i++ {
		p.Send(to, PexExchangeTag, &PexExchange{Wire: pex.EncodeRecords([]pex.Record{rec})})
	}
}

func defendedConfig(seed uint64) Config {
	return Config{
		Seed: seed,
		Auth: AuthConfig{Enabled: true},
		Pex: pex.Config{
			Enabled: true,
			Audit:   pex.ViewAuditConfig{Enabled: true, KeySeed: 9},
		},
	}
}

// TestPexDefenseQuarantinesInjector: forged-signature records strike the
// sender's injection budget and hand it to the auth quarantine machinery;
// the sybil never enters a view.
func TestPexDefenseQuarantinesInjector(t *testing.T) {
	e, w := pexWorld(t, 6, defendedConfig(4))
	w.PexSeedViews(topology.BuildRing(6))
	e.RunUntil(40)
	sybil := pex.Record{ID: 999, Epoch: 40, Sig: 0xbad}
	e.At(41, func() { pexAttack(w, 1, 2, 5, sybil) })
	e.RunUntil(80)
	if w.PexTotals().RejectedSig == 0 {
		t.Fatalf("no signature rejections: %+v", w.PexTotals())
	}
	if !w.Quarantined(2, 1) {
		t.Fatalf("injector not quarantined through the auth layer")
	}
	if !w.PexBlacklisted(2, 1) {
		t.Fatalf("injector not blacklisted in the view layer")
	}
	for _, id := range w.Present() {
		for _, r := range w.PexView(id) {
			if r.ID == 999 {
				t.Fatalf("sybil reached entity %d's view", id)
			}
		}
	}
	if w.Overlay.Graph().HasEdge(1, 2) {
		t.Fatalf("quarantined link still up")
	}
	events := w.PexQuarantineEvents()
	if len(events) == 0 || events[0].By != 2 || events[0].Offender != 1 {
		t.Fatalf("view quarantine events: %+v", events)
	}
}

// TestPexStaleRecordRejectedWithoutStrike: a genuinely-signed but old
// record is refused yet never charges the forwarder — honest peers hold
// old records, and striking them would manufacture false quarantines.
func TestPexStaleRecordRejectedWithoutStrike(t *testing.T) {
	e, w := pexWorld(t, 6, defendedConfig(5))
	w.PexSeedViews(topology.BuildRing(6))
	e.RunUntil(100)
	before := w.PexTotals()
	stale := pex.SignRecord(9, 3, 10) // validly signed at tick 10, long past pex.FreshFor
	e.At(101, func() { pexAttack(w, 1, 2, 6, stale) })
	e.RunUntil(140)
	after := w.PexTotals()
	if after.RejectedStale == before.RejectedStale {
		t.Fatalf("stale record not rejected: %+v", after)
	}
	if w.Quarantined(2, 1) || w.PexBlacklisted(2, 1) {
		t.Fatalf("stale records quarantined an honest forwarder")
	}
}

// TestPexParoleClearsViewBlacklist: auth parole must reopen the view
// layer too, or a paroled link would stay membership-dead forever.
func TestPexParoleClearsViewBlacklist(t *testing.T) {
	cfg := defendedConfig(6)
	cfg.Auth.Parole = 40
	e, w := pexWorld(t, 6, cfg)
	w.PexSeedViews(topology.BuildRing(6))
	e.RunUntil(40)
	e.At(41, func() { pexAttack(w, 1, 2, 5, pex.Record{ID: 999, Epoch: 41, Sig: 1}) })
	e.RunUntil(60)
	if !w.PexBlacklisted(2, 1) {
		t.Fatalf("injector not blacklisted")
	}
	e.RunUntil(200)
	if w.PexBlacklisted(2, 1) {
		t.Fatalf("parole left the view blacklist in place")
	}
}

// TestPexUndecodableExchangeStrikes: garbage wire bytes are themselves an
// offense under the defense.
func TestPexUndecodableExchangeStrikes(t *testing.T) {
	e, w := pexWorld(t, 4, defendedConfig(7))
	w.PexSeedViews(topology.BuildRing(4))
	e.RunUntil(20)
	e.At(21, func() {
		p := w.Proc(1)
		for i := 0; i < 5; i++ {
			p.Send(2, PexExchangeTag, &PexExchange{Wire: []byte{0xff, 0xff}})
		}
	})
	e.RunUntil(60)
	if w.PexTotals().RejectedBad == 0 || !w.PexBlacklisted(2, 1) {
		t.Fatalf("undecodable exchanges tolerated: %+v", w.PexTotals())
	}
}

// TestPexHonestRunNoQuarantines: the strike discipline must be quiet on a
// clean run — no strikes, no quarantines, under every policy.
func TestPexHonestRunNoQuarantines(t *testing.T) {
	for _, policy := range []pex.Policy{pex.PolicyRand, pex.PolicyHead, pex.PolicyTail, pex.PolicyPushPull} {
		cfg := defendedConfig(8)
		cfg.Pex.Policy = policy
		cfg.MinLatency, cfg.MaxLatency = 1, 3
		e, w := pexWorld(t, 12, cfg)
		w.PexSeedViews(topology.BuildRing(12))
		e.RunUntil(300)
		tot := w.PexTotals()
		if tot.Strikes != 0 || tot.ViewQuarantines != 0 {
			t.Fatalf("policy %s: honest run struck: %+v", policy, tot)
		}
		if len(w.QuarantineEvents()) != 0 {
			t.Fatalf("policy %s: auth quarantines on a clean run", policy)
		}
		if at := w.PexConvergedAt(); at < 0 {
			t.Fatalf("policy %s: never converged", policy)
		}
	}
}

// TestPexDeterminism: identical configs and seeds yield bit-identical
// sample streams and counters.
func TestPexDeterminism(t *testing.T) {
	run := func() ([]PexSample, PexCounters) {
		cfg := defendedConfig(11)
		cfg.MinLatency, cfg.MaxLatency = 1, 3
		e, w := pexWorld(t, 16, cfg)
		w.PexSeedViews(topology.BuildRing(16))
		e.At(50, func() { w.Leave(5) })
		e.At(90, func() { w.Join(17) })
		e.RunUntil(300)
		return w.PexSamples(), w.PexTotals()
	}
	s1, t1 := run()
	s2, t2 := run()
	if !reflect.DeepEqual(s1, s2) || t1 != t2 {
		t.Fatalf("two identical runs diverged")
	}
}
