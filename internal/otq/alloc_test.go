package otq

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// echoAndGossip runs an echo wave and push-sum side by side on one
// entity; each ignores the other's tags.
type echoAndGossip struct {
	echo   *echoWaveBehavior
	gossip *gossipBehavior
}

func (b echoAndGossip) Init(p *node.Proc) { b.echo.Init(p); b.gossip.Init(p) }

func (b echoAndGossip) Receive(p *node.Proc, m node.Message) {
	b.echo.Receive(p, m)
	b.gossip.Receive(p, m)
}

// TestWaveTickAllocations pins what a judged world's protocol ticks
// allocate once warm: 64 entities of random-k(3) running push-sum and an
// echo wave under a full trace, measured one tick at a time while the
// wave spreads. A tick may allocate once per message (push-sum boxes its
// payload) and twice per entity whose contributor set grew (the snapshot
// its pushes share, and the set's own growth), plus slack for the
// engine's event slab and the trace's next chunk. Re-arming a tick,
// reading neighbours, pushing an unchanged set and recording allocate
// nothing.
func TestWaveTickAllocations(t *testing.T) {
	const n, runs = 64, 120
	echo, gossip := &EchoWave{}, &GossipPushSum{Seed: 1}
	factory := func(id graph.NodeID) node.Behavior {
		return echoAndGossip{
			echo:   echo.Factory()(id).(*echoWaveBehavior),
			gossip: gossip.Factory()(id).(*gossipBehavior),
		}
	}
	e := sim.New()
	w := node.NewWorld(e, topology.NewRandomK(1, 3), factory, node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	// Warm up: push-sum alone, long enough to size every engine bucket
	// and every scratch buffer; then start the wave at entity 1.
	e.RunUntil(300)
	echoOf := func(i int) *echoWaveBehavior { return w.Proc(graph.NodeID(i)).Behavior().(echoAndGossip).echo }
	echoOf(1).activate(w.Proc(1))

	version := make([]int, n+1)
	grown := 0
	sent := w.Trace.Messages("").Sent
	perTick := testing.AllocsPerRun(runs, func() {
		e.RunUntil(e.Now() + 1)
		for i := 1; i <= n; i++ {
			if v := echoOf(i).version(); v != version[i] {
				version[i] = v
				grown++
			}
		}
	})
	msgs := float64(w.Trace.Messages("").Sent-sent) / (runs + 1)
	grew := float64(grown) / (runs + 1)
	if pushes := w.Trace.Messages(tagEchoSet).Sent; pushes == 0 || grown < n {
		t.Fatalf("the wave did not spread while measured: %d pushes, %d set growths", pushes, grown)
	}
	if want := msgs + 2*grew + 2; perTick > want {
		t.Errorf("%.1f allocs per tick for %.1f messages and %.1f set growths, want <= %.1f",
			perTick, msgs, grew, want)
	}
}

// TestFloodRelayAllocations: once a RepeatedFlood world is warm, a wave
// of radius 2 from one relay allocates one boxed payload per report an
// entity originates, and one for the query the relay forwards to all its
// neighbours. The relay and each neighbour it reaches send their own
// contribution up, boxed once each; the relay forwards the neighbours'
// reports as they arrived, boxing nothing. No entity allocates for its
// own contribution, which it builds once and reuses for every wave. The engine runs between waves, so delivered
// envelopes return to their pool as they would in a running world, and
// laps of the engine's wheel first size its buckets for the load. The
// relay is no neighbour of the querier, whose accumulator allocates per
// wave.
func TestFloodRelayAllocations(t *testing.T) {
	const n, runs = 64, 100
	proto := &RepeatedFlood{TTL: 8, MaxLatency: 2}
	e := sim.New()
	w := node.NewWorld(e, topology.NewRandomK(1, 3), proto.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	run := proto.Launch(w, 1)
	e.RunUntil(400)
	if run.Answer() == nil {
		t.Fatal("the warm-up query never answered")
	}
	var p *node.Proc
	for id := graph.NodeID(2); p == nil && id <= n; id++ {
		if nb := w.Proc(id).Neighbors(); len(nb) >= 3 && !slices.Contains(nb, run.Querier) {
			p = w.Proc(id)
		}
	}
	if p == nil {
		t.Fatal("every entity with three neighbours borders the querier")
	}
	relay := p.Behavior().(*floodBehavior)
	from, qid := p.Neighbors()[0], 1000
	wave := func() {
		qid++
		relay.onQuery(p, from, queryMsg{QID: qid, TTL: 1})
		e.RunUntil(e.Now() + 5)
	}
	for i := 0; i < 256; i++ {
		wave()
	}
	queries, reports := w.Trace.Messages(tagQuery).Sent, w.Trace.Messages(tagReport).Sent
	perWave := testing.AllocsPerRun(runs, wave)
	perQueries := float64(w.Trace.Messages(tagQuery).Sent-queries) / (runs + 1)
	perReports := float64(w.Trace.Messages(tagReport).Sent-reports) / (runs + 1)
	if perQueries < 2 || perReports < 2 {
		t.Fatalf("%.1f queries and %.1f reports per wave: the relay did not both forward and relay", perQueries, perReports)
	}
	// Every query the relay sends draws one report that it then relays,
	// so the reports originated are the reports sent less the queries.
	if want := perReports - perQueries + 1; perWave > want {
		t.Errorf("%.1f allocs per wave for %.1f reports (%.1f of them relayed) and %.1f queries, want <= %.1f",
			perWave, perReports, perQueries, perQueries, want)
	}
}
