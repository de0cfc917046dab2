package node

import (
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// echoBehavior replies "pong" to every "ping".
type echoBehavior struct {
	pings, pongs int
}

func (e *echoBehavior) Init(*Proc) {}
func (e *echoBehavior) Receive(p *Proc, m Message) {
	switch m.Tag {
	case "ping":
		e.pings++
		p.Send(m.From, "pong", nil)
	case "pong":
		e.pongs++
	}
}

func meshWorld(factory BehaviorFactory, cfg Config) (*World, *sim.Engine) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), factory, cfg)
	return w, e
}

func TestJoinLeaveBookkeeping(t *testing.T) {
	w, _ := meshWorld(nil, Config{})
	w.Join(1)
	w.Join(2)
	if len(w.Present()) != 2 {
		t.Fatalf("Present = %v", w.Present())
	}
	if w.Proc(1) == nil || !w.Proc(1).Alive() {
		t.Fatal("proc 1 missing or dead")
	}
	w.Leave(1)
	if w.Proc(1) != nil {
		t.Fatal("departed proc still retrievable")
	}
	w.Leave(1) // double leave is a no-op
	if len(w.Present()) != 1 {
		t.Fatalf("Present = %v after leave", w.Present())
	}
}

func TestTurnoverCounters(t *testing.T) {
	w, e := meshWorld(nil, Config{})
	if j, l := w.Turnover(); j != 0 || l != 0 {
		t.Fatalf("fresh world turnover = %d, %d", j, l)
	}
	w.Join(1)
	w.Join(2)
	w.Join(3)
	if j, l := w.Turnover(); j != 3 || l != 0 {
		t.Fatalf("after 3 joins: %d, %d", j, l)
	}
	w.Leave(2)
	w.Leave(2) // no-op double leave must not count
	w.Crash(3)
	if j, l := w.Turnover(); j != 3 || l != 2 {
		t.Fatalf("after leave+crash: %d, %d", j, l)
	}
	e.RunUntil(5)
	w.Recover(3)
	w.Join(2) // rejoin counts as an arrival again
	if j, l := w.Turnover(); j != 5 || l != 2 {
		t.Fatalf("after recover+rejoin: %d, %d", j, l)
	}
	// Counters are monotone: nothing decrements them.
	w.Leave(1)
	if j, l := w.Turnover(); j != 5 || l != 3 {
		t.Fatalf("final: %d, %d", j, l)
	}
}

func TestDoubleJoinPanics(t *testing.T) {
	w, _ := meshWorld(nil, Config{})
	w.Join(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double join did not panic")
		}
	}()
	w.Join(1)
}

func TestTraceRecordsMembership(t *testing.T) {
	w, e := meshWorld(nil, Config{})
	w.Join(1)
	e.RunUntil(5)
	w.Join(2)
	e.RunUntil(10)
	w.Leave(1)
	w.Close()
	tr := w.Trace
	if got := tr.MaxConcurrency(); got != 2 {
		t.Fatalf("trace MaxConcurrency = %d", got)
	}
	pres := tr.PresentAt(7)
	if len(pres) != 2 {
		t.Fatalf("trace PresentAt(7) = %v", pres)
	}
	// Edge 1-2 must have been recorded up at t=5 and down at t=10.
	var up, down bool
	for _, ev := range tr.Events() {
		if ev.Kind == core.TEdgeUp && ev.At == 5 {
			up = true
		}
		if ev.Kind == core.TEdgeDown && ev.At == 10 {
			down = true
		}
	}
	if !up || !down {
		t.Fatal("edge events not recorded")
	}
}

func TestPingPong(t *testing.T) {
	behaviors := map[graph.NodeID]*echoBehavior{}
	factory := func(id graph.NodeID) Behavior {
		b := &echoBehavior{}
		behaviors[id] = b
		return b
	}
	w, e := meshWorld(factory, Config{})
	w.Join(1)
	w.Join(2)
	w.Proc(1).Send(2, "ping", nil)
	e.Run()
	if behaviors[2].pings != 1 {
		t.Fatalf("node 2 received %d pings", behaviors[2].pings)
	}
	if behaviors[1].pongs != 1 {
		t.Fatalf("node 1 received %d pongs", behaviors[1].pongs)
	}
}

func TestSendToNonNeighborDropped(t *testing.T) {
	e := sim.New()
	// Growing path: 1-2-3; 1 and 3 are not neighbors.
	w := NewWorld(e, topology.NewGrowingPath(), nil, Config{})
	w.Join(1)
	w.Join(2)
	w.Join(3)
	w.Proc(1).Send(3, "x", nil)
	e.Run()
	ms := w.Trace.Messages("x")
	if ms.Sent != 0 || ms.Dropped != 1 {
		t.Fatalf("non-neighbor send stats = %+v", ms)
	}
}

func TestMessageToDepartedDropped(t *testing.T) {
	w, e := meshWorld(nil, Config{MinLatency: 5, MaxLatency: 5})
	w.Join(1)
	w.Join(2)
	w.Proc(1).Send(2, "x", nil)
	e.At(2, func() { w.Leave(2) })
	e.Run()
	ms := w.Trace.Messages("x")
	if ms.Sent != 1 || ms.Delivered != 0 || ms.Dropped != 1 {
		t.Fatalf("in-flight-to-departed stats = %+v", ms)
	}
}

func TestLossRate(t *testing.T) {
	w, e := meshWorld(nil, Config{LossRate: 1.0})
	w.Join(1)
	w.Join(2)
	w.Proc(1).Send(2, "x", nil)
	e.Run()
	ms := w.Trace.Messages("x")
	if ms.Delivered != 0 || ms.Dropped != 1 {
		t.Fatalf("LossRate=1 stats = %+v", ms)
	}
}

func TestLatencyRange(t *testing.T) {
	received := map[graph.NodeID]sim.Time{}
	factory := func(id graph.NodeID) Behavior {
		return behaviorFunc(func(p *Proc, m Message) { received[p.ID] = p.Now() })
	}
	w, e := meshWorld(factory, Config{MinLatency: 3, MaxLatency: 7, Seed: 5})
	w.Join(1)
	for i := graph.NodeID(2); i <= 40; i++ {
		w.Join(i)
	}
	w.Proc(1).Broadcast("x", nil)
	e.Run()
	if len(received) != 39 {
		t.Fatalf("received %d messages, want 39", len(received))
	}
	lo, hi := sim.Time(1<<62), sim.Time(0)
	for _, at := range received {
		if at < lo {
			lo = at
		}
		if at > hi {
			hi = at
		}
	}
	if lo < 3 || hi > 7 {
		t.Fatalf("latency range observed [%d, %d], configured [3, 7]", lo, hi)
	}
	if lo == hi {
		t.Fatal("no latency variation observed over 39 messages")
	}
}

type behaviorFunc func(p *Proc, m Message)

func (behaviorFunc) Init(*Proc)                   {}
func (f behaviorFunc) Receive(p *Proc, m Message) { f(p, m) }

func TestTimersDieWithProc(t *testing.T) {
	fired := false
	factory := func(id graph.NodeID) Behavior { return Nop{} }
	w, e := meshWorld(factory, Config{})
	p := w.Join(1)
	p.After(10, func() { fired = true })
	e.At(5, func() { w.Leave(1) })
	e.Run()
	if fired {
		t.Fatal("timer fired after its entity left")
	}
}

func TestTimerFiresWhileAlive(t *testing.T) {
	fired := sim.Time(-1)
	w, e := meshWorld(nil, Config{})
	p := w.Join(1)
	p.After(10, func() { fired = p.Now() })
	e.Run()
	if fired != 10 {
		t.Fatalf("timer fired at %d, want 10", fired)
	}
}

func TestValueAssignment(t *testing.T) {
	w, _ := meshWorld(nil, Config{ValueOf: func(id graph.NodeID) float64 { return 10 * float64(id) }})
	p := w.Join(3)
	if p.Value != 30 {
		t.Fatalf("Value = %v, want 30", p.Value)
	}
	// Default assignment.
	w2, _ := meshWorld(nil, Config{})
	if p2 := w2.Join(7); p2.Value != 7 {
		t.Fatalf("default Value = %v, want 7", p2.Value)
	}
}

func TestApplyChurn(t *testing.T) {
	g := churn.New(11, churn.Config{InitialPopulation: 10, ArrivalRate: 0.5, Session: churn.ExpSessions(40)})
	e := sim.New()
	w := NewWorld(e, topology.NewRing(3), nil, Config{})
	w.ApplyChurn(g, 300)
	e.RunUntil(300)
	w.Close()
	tr := w.Trace
	if tr.MaxConcurrency() < 10 {
		t.Fatalf("MaxConcurrency = %d", tr.MaxConcurrency())
	}
	if len(tr.Entities()) <= 10 {
		t.Fatalf("no arrivals materialized: %d entities", len(tr.Entities()))
	}
	// World membership must agree with the trace at the end.
	present := tr.PresentAt(int64(e.Now()))
	if len(present) != len(w.Present()) {
		t.Fatalf("trace says %d present, world says %d", len(present), len(w.Present()))
	}
}

func TestDeterministicWorldReplay(t *testing.T) {
	run := func() []core.TraceEvent {
		g := churn.New(21, churn.Config{InitialPopulation: 8, ArrivalRate: 0.3, Session: churn.ExpSessions(50)})
		e := sim.New()
		w := NewWorld(e, topology.NewRandomK(9, 2), nil, Config{MinLatency: 1, MaxLatency: 4, Seed: 2})
		w.ApplyChurn(g, 200)
		e.RunUntil(200)
		w.Close()
		return w.Trace.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func reorderFixture(t *testing.T) []int {
	t.Helper()
	var order []int
	factory := func(id graph.NodeID) Behavior {
		return behaviorFunc(func(p *Proc, m Message) {
			order = append(order, m.Payload.(int))
		})
	}
	w, e := meshWorld(factory, Config{MinLatency: 1, MaxLatency: 10, Seed: 4})
	w.Join(1)
	w.Join(2)
	for i := 0; i < 40; i++ {
		i := i
		e.At(sim.Time(i), func() { w.Proc(1).Send(2, "seq", i) })
	}
	e.Run()
	if len(order) != 40 {
		t.Fatalf("delivered %d of 40", len(order))
	}
	return order
}

func TestChannelReorderingWithoutFIFO(t *testing.T) {
	order := reorderFixture(t)
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("fixture too weak: jittered latency never reordered 40 messages")
	}
}

func TestSetLink(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), nil, Config{})
	w.Join(1)
	w.Join(2)
	e.RunUntil(5)
	w.SetLink(1, 2, true)
	if !w.Overlay.Graph().HasEdge(1, 2) {
		t.Fatal("SetLink up did not create the edge")
	}
	e.RunUntil(9)
	w.SetLink(1, 2, false)
	if w.Overlay.Graph().HasEdge(1, 2) {
		t.Fatal("SetLink down did not remove the edge")
	}
	var up, down bool
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TEdgeUp && ev.At == 5 {
			up = true
		}
		if ev.Kind == core.TEdgeDown && ev.At == 9 {
			down = true
		}
	}
	if !up || !down {
		t.Fatal("SetLink changes not recorded in the trace")
	}
}

func TestSetLinkUnsupportedOverlayPanics(t *testing.T) {
	w, _ := meshWorld(nil, Config{})
	w.Join(1)
	w.Join(2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetLink on mesh did not panic")
		}
	}()
	w.SetLink(1, 2, false)
}

func TestInvalidLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid latency range did not panic")
		}
	}()
	NewWorld(sim.New(), topology.NewMesh(), nil, Config{MinLatency: 5, MaxLatency: 2})
}
