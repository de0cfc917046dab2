package otq

import (
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
