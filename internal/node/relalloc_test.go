package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestReliableRoundTripAllocations guards the security stack's hot path.
// Over reliable+auth+reconfig, one send→deliver→ack round trip must
// allocate no more than the same send→deliver does on the bare channel,
// whose delivery envelopes are pooled: the tracked message comes from the
// free list, the ack's payload is zero-size, and the window, the dedup
// bitset and the auth window are sized once warm. A reconfiguration ack
// forwarded on to the third entity is held to the same figure: the flood
// forwards the payload it received instead of boxing it again, and reads
// the neighbors into the world's reused buffer. The worlds are meshes
// under a count-only trace, warmed before measuring.
func TestReliableRoundTripAllocations(t *testing.T) {
	world := func(cfg Config) (*World, *sim.Engine) {
		e := sim.New()
		cfg.Seed = 1
		w := NewWorld(e, topology.NewMesh(), nil, cfg)
		w.Trace.SetCountOnly(true)
		for id := graph.NodeID(1); id <= 3; id++ {
			w.Join(id)
		}
		return w, e
	}
	var payload any = 7.0
	roundTrip := func(w *World, e *sim.Engine) float64 {
		p := w.Proc(1)
		trip := func() {
			p.Send(2, "data", payload)
			e.RunUntil(e.Now() + 3)
		}
		for i := 0; i < 200; i++ {
			trip()
		}
		return testing.AllocsPerRun(200, trip)
	}

	bare := roundTrip(world(Config{}))
	w, e := world(Config{
		Reliable: ReliableConfig{Enabled: true},
		Auth:     AuthConfig{Enabled: true},
		Reconfig: ReconfigConfig{Enabled: true},
	})
	ep := w.Reconfigure(1, StackConfig{KeyEpoch: 1})
	e.RunUntil(50)
	if w.LatestEpoch() != ep {
		t.Fatalf("epoch %d did not commit", ep)
	}
	sent := w.Trace.Messages("data").Sent
	if got := roundTrip(w, e); got > bare {
		t.Errorf("one reliable+auth+reconfig round trip: %.0f allocs, bare channel %.0f", got, bare)
	}
	if tot := w.ReliableTotals(); tot.Retries != 0 || w.Trace.Messages("data").Sent-sent != 401 || w.rel.tracked(w.rel.seq) != nil {
		t.Fatalf("round trips did not settle cleanly: %+v", tot)
	}

	// Each forward is a fresh acker's ack arriving at 1 from 2; the flood
	// carries it on to 3 (and 3 to 2), every copy tracked and acked.
	acks := make([]Message, 400)
	for i := range acks {
		acks[i] = Message{From: 2, To: 1, Tag: ReconfigAckTag, Payload: reconfigAck{Epoch: ep, Acker: graph.NodeID(100 + i)}}
	}
	k := 0
	forward := func() {
		w.reconfig.onReconfig(w, w.Proc(1), acks[k])
		k++
		e.RunUntil(e.Now() + 3)
	}
	for i := 0; i < 200; i++ {
		forward()
	}
	before := w.ReconfigTotals().Acks
	if got := testing.AllocsPerRun(199, forward); got > bare {
		t.Errorf("one forwarded reconfiguration ack: %.0f allocs, bare channel round trip %.0f", got, bare)
	}
	if n := w.ReconfigTotals().Acks - before; n < 3*200 {
		t.Fatalf("%d acks handled while measuring 200 forwards: the flood did not reach every entity", n)
	}
}

// TestBroadcastAllocations: Broadcast allocates nothing beyond its sends.
// It reads the neighbors into the world's reused buffer rather than
// copying the list on every call, which otq's flood relays pay per
// receipt. Measured on the bare channel of a 4-entity mesh under a
// count-only trace, warmed before measuring, against the same three sends
// issued one by one.
func TestBroadcastAllocations(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), nil, Config{Seed: 1})
	w.Trace.SetCountOnly(true)
	for id := graph.NodeID(1); id <= 4; id++ {
		w.Join(id)
	}
	p := w.Proc(1)
	var payload any = 7.0
	nbrs := p.Neighbors()
	sends := func() {
		for _, u := range nbrs {
			p.Send(u, "data", payload)
		}
		e.RunUntil(e.Now() + 2)
	}
	broadcast := func() {
		p.Broadcast("data", payload)
		e.RunUntil(e.Now() + 2)
	}
	for i := 0; i < 200; i++ {
		sends()
		broadcast()
	}
	want := testing.AllocsPerRun(200, sends)
	sent := w.Trace.Messages("data").Sent
	if got := testing.AllocsPerRun(200, broadcast); got > want {
		t.Errorf("one Broadcast to %d neighbors: %.0f allocs, its sends one by one %.0f", len(nbrs), got, want)
	}
	if n := w.Trace.Messages("data").Sent - sent; n != 201*len(nbrs) {
		t.Fatalf("%d copies sent over 201 broadcasts to %d neighbors", n, len(nbrs))
	}
}
