package node

import (
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rejoinAllocs is what one leave-and-rejoin allocates of its own, apart
// from its messages: the rejoiner's Proc, adjacency list, pex record,
// view and round closure and timer slot, the overlay's departure change
// list, bootstrap's contact draws, and the view and adjacency lists of
// the rejoiner and its new neighbours growing back. None of it is
// reconcile's or its dirty marks'. It is 24 in a plain build; under the
// race detector a growing adjacency list's slices.Insert also puts its
// temporary on the heap, which costs two more.
const rejoinAllocs = 26

// rejoinBytes bounds what those rejoinAllocs allocations come to, and
// maxPexBytesPerMsg what one exchange message may allocate of its own.
const (
	rejoinBytes       = 4096
	maxPexBytesPerMsg = 8
)

// TestPexExchangeAllocations pins what the pex path allocates once its
// scratch buffers are sized and its frame pool has grown to the world's
// peak of exchanges in flight: per message, nothing. Every exchange is
// drawn from the pool and recycled once its last copy has landed, so the
// only allocations are the pool's rare chunk growth, held to at most 1
// per 16 messages, and the bytes held to maxPexBytesPerMsg per message
// (an exchange that is not recycled costs its 107 wire bytes and its
// header, some 140). The round timer re-arms without allocating, and
// reconcile, its dirty marks, partner and record selection, decode and
// merge allocate nothing. The world is pex-churn's shape — a ring-seeded
// 64-entity pushpull overlay under a count-only trace — warmed until its
// views are full and its links flip about once per message. It is
// measured twice: as it is, then under leave/rejoin churn (one entity
// leaves and one that left eight cadences ago rejoins each cadence),
// where the only extra allowance is each rejoin's own rejoinAllocs and
// rejoinBytes.
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

	// measure returns one cadence's allocations and allocated bytes (each
	// cadence preceded by step) with the messages, rounds and unlinks it
	// averaged.
	measure := func(step func()) (allocs, bytes, msgs, rounds, unlinks float64) {
		sent, before := w.Trace.Messages("").Sent, w.PexTotals()
		runs := 0
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		total := ms.TotalAlloc
		allocs = testing.AllocsPerRun(50, func() {
			runs++
			step()
			e.RunUntil(e.Now() + pex.Cadence)
		})
		runtime.ReadMemStats(&ms)
		tot := w.PexTotals()
		if tot.Links == before.Links {
			t.Fatalf("no link flipped while measuring: reconcile's flip path went unexercised")
		}
		n := float64(runs)
		return allocs, float64(ms.TotalAlloc-total) / n, float64(w.Trace.Messages("").Sent-sent) / n,
			float64(tot.Exchanges+tot.RoundsIdle-before.Exchanges-before.RoundsIdle) / n,
			float64(tot.Unlinks-before.Unlinks) / n
	}

	perCadence, bytesPer, msgsPer, roundsPer, _ := measure(func() {})
	// One allocation of slack: AllocsPerRun truncates, and a scratch
	// buffer may still grow once.
	if want := msgsPer/16 + 1; perCadence > want {
		t.Errorf("one cadence: %.0f allocs for %.1f messages and %.1f rounds, want <= %.1f (chunk refills: 1 per 16 messages)",
			perCadence, msgsPer, roundsPer, want)
	}
	if want := msgsPer * maxPexBytesPerMsg; bytesPer > want {
		t.Errorf("one cadence: %.0f bytes for %.1f messages, want <= %.0f (%d per message)",
			bytesPer, msgsPer, want, maxPexBytesPerMsg)
	}

	const away = 8
	k := 0
	churn := func() {
		k++
		if id := graph.NodeID(1 + k%64); w.Proc(id) != nil {
			w.Leave(id)
		}
		if back := graph.NodeID(1 + (k+64-away)%64); w.Proc(back) == nil {
			w.Join(back)
		}
	}
	for i := 0; i < 64*4; i++ { // every entity has left and rejoined
		churn()
		e.RunUntil(e.Now() + pex.Cadence)
	}
	perCadence, bytesPer, msgsPer, _, unlinksPer := measure(churn)
	if unlinksPer < 10 {
		t.Fatalf("%.1f unlinks per cadence under churn: the dirty lists went unexercised", unlinksPer)
	}
	if want := msgsPer/16 + rejoinAllocs + 1; perCadence > want {
		t.Errorf("one churned cadence: %.0f allocs for %.1f messages and one rejoin, want <= %.1f (1 per 16 messages + %d per rejoin)",
			perCadence, msgsPer, want, rejoinAllocs)
	}
	if want := msgsPer*maxPexBytesPerMsg + rejoinBytes; bytesPer > want {
		t.Errorf("one churned cadence: %.0f bytes for %.1f messages and one rejoin, want <= %.0f (%d per message + %d per rejoin)",
			bytesPer, msgsPer, want, maxPexBytesPerMsg, rejoinBytes)
	}
}

// BenchmarkPexChurn times one cadence of a 1 000-entity pushpull pex world
// (ring-seeded, count-only trace, pex-churn's shape at a quarter of its
// size) under rejoining churn: before each cadence, ten entities leave and
// ten that left five cadences ago rejoin. Reconcile, merge, the exchange
// codec and the entity and adjacency lookups on the exchange path all run
// in it, so the allocation gate watches them.
func BenchmarkPexChurn(b *testing.B) {
	const n, batch, away = 1000, 10, 5
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), nil, Config{
		Seed: 1, MinLatency: 1, MaxLatency: 2,
		Pex: pex.Config{Enabled: true, Policy: pex.PolicyPushPull, SampleEvery: 1 << 20},
	})
	w.Trace.SetCountOnly(true)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	w.PexSeedViews(topology.BuildRing(n))
	k := 0
	cadence := func() {
		for i := 0; i < batch; i++ {
			k++
			if id := graph.NodeID(1 + k%n); w.Proc(id) != nil {
				w.Leave(id)
			}
			if back := graph.NodeID(1 + (k+n-away*batch)%n); w.Proc(back) == nil {
				w.Join(back)
			}
		}
		e.RunUntil(e.Now() + pex.Cadence)
	}
	for i := 0; i < 2*n/batch; i++ { // every entity has left and rejoined twice
		cadence()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cadence()
	}
}
