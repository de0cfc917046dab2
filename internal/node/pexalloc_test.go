package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestPexExchangeAllocations pins what the pex path allocates once its
// scratch buffers are sized: per message, the wire bytes and the boxed
// pex.Exchange payload; per round, the re-armed round timer. Reconcile,
// partner and record selection, decode and merge allocate nothing. The
// world is pex-churn's shape without the churn — a ring-seeded 64-entity
// pushpull overlay under a count-only trace — warmed until its views are
// full and its links flip about once per message.
func TestPexExchangeAllocations(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), nil, Config{
		Seed: 1, MinLatency: 1, MaxLatency: 2,
		Pex: pex.Config{Enabled: true, SampleEvery: 1 << 20},
	})
	w.Trace.SetCountOnly(true)
	for i := 1; i <= 64; i++ {
		w.Join(graph.NodeID(i))
	}
	w.PexSeedViews(topology.BuildRing(64))
	e.RunUntil(400)

	sent, before := w.Trace.Messages("").Sent, w.PexTotals()
	runs := 0
	perCadence := testing.AllocsPerRun(50, func() {
		runs++
		e.RunUntil(e.Now() + w.pex.cfg.Cadence)
	})
	tot := w.PexTotals()
	msgsPer := float64(w.Trace.Messages("").Sent-sent) / float64(runs)
	roundsPer := float64(tot.Exchanges+tot.RoundsIdle-before.Exchanges-before.RoundsIdle) / float64(runs)
	if tot.Links == before.Links {
		t.Fatalf("no link flipped while measuring: reconcile's flip path went unexercised")
	}
	// One allocation of slack: AllocsPerRun truncates, and a scratch
	// buffer may still grow once.
	if want := 2*msgsPer + roundsPer + 1; perCadence > want {
		t.Errorf("one cadence: %.0f allocs for %.1f messages and %.1f rounds, want <= %.1f (2 per message + 1 per round)",
			perCadence, msgsPer, roundsPer, want)
	}
}
