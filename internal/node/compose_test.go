package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

type countingBehavior struct {
	inits, msgs int
	tag         string
}

func (c *countingBehavior) Init(*Proc) { c.inits++ }
func (c *countingBehavior) Receive(_ *Proc, m Message) {
	if c.tag == "" || m.Tag == c.tag {
		c.msgs++
	}
}

func TestComposeFansOut(t *testing.T) {
	a := &countingBehavior{tag: "a"}
	b := &countingBehavior{tag: "b"}
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		if id == 1 {
			return Compose(a, b)
		}
		return Nop{}
	}, Config{})
	w.Join(1)
	w.Join(2)
	if a.inits != 1 || b.inits != 1 {
		t.Fatalf("Init fan-out: a=%d b=%d", a.inits, b.inits)
	}
	w.Proc(2).Send(1, "a", nil)
	w.Proc(2).Send(1, "b", nil)
	w.Proc(2).Send(1, "b", nil)
	e.Run()
	if a.msgs != 1 || b.msgs != 2 {
		t.Fatalf("Receive fan-out: a=%d b=%d, want 1/2", a.msgs, b.msgs)
	}
}

func TestComposeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compose() did not panic")
		}
	}()
	Compose()
}

func TestFindBehavior(t *testing.T) {
	a := &countingBehavior{}
	nested := Compose(Nop{}, Compose(a))
	got, ok := FindBehavior[*countingBehavior](nested)
	if !ok || got != a {
		t.Fatal("FindBehavior missed a nested part")
	}
	if _, ok := FindBehavior[*countingBehavior](Nop{}); ok {
		t.Fatal("FindBehavior found a part that is not there")
	}
	// Direct (non-composite) match.
	if got, ok := FindBehavior[*countingBehavior](a); !ok || got != a {
		t.Fatal("FindBehavior missed a direct match")
	}
}

func TestCrashAbsentEntityNoop(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), nil, Config{})
	w.Crash(42) // must not panic
	if w.Trace.Len() != 0 {
		t.Fatal("crashing an absent entity recorded events")
	}
}

func TestCrashLeavesOverlayStale(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), nil, Config{})
	w.Join(1)
	w.Join(2)
	e.RunUntil(10)
	w.Crash(2)
	if w.Proc(2) != nil {
		t.Fatal("crashed proc still running")
	}
	if !w.Overlay.Graph().HasEdge(1, 2) {
		t.Fatal("crash removed overlay edges; only Leave announces")
	}
	// The ground truth records the departure and the crash mark.
	present := w.Trace.PresentAt(10)
	if len(present) != 1 || present[0] != 1 {
		t.Fatalf("trace PresentAt(10) = %v", present)
	}
	var marked bool
	for _, ev := range w.Trace.Events() {
		if ev.Tag == "crash" && ev.P == 2 {
			marked = true
		}
	}
	if !marked {
		t.Fatal("crash mark missing from trace")
	}
	// Messages to the crashed entity are dropped.
	w.Proc(1).Send(2, "x", nil)
	e.Run()
	if ms := w.Trace.Messages("x"); ms.Delivered != 0 || ms.Dropped != 1 {
		t.Fatalf("message to crashed entity: %+v", ms)
	}
}
