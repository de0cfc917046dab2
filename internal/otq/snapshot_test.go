package otq

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestEchoSnapshotsStayImmutable: an echo-wave entity ships one shared
// contributor map per version instead of a copy per neighbour. Under
// duplicated and corrupted delivery, every map shipped must still hold
// at the end of the run exactly what it held when it was sent — no
// receiver, duplicate or tampered copy may write through the sharing.
func TestEchoSnapshotsStayImmutable(t *testing.T) {
	plan, err := fault.Parse("dup:p=0.4;corrupt:p=0.05;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	proto := &EchoWave{}
	e := sim.New()
	w := node.NewWorld(e, topology.NewRandomK(3, 3), proto.Factory(), node.Config{MinLatency: 1, MaxLatency: 3, Seed: 3})
	for i := 1; i <= 24; i++ {
		w.Join(graph.NodeID(i))
	}
	plan.Attach(w)
	type shipment struct {
		contrib map[graph.NodeID]float64
		digest  uint64
	}
	var sent []shipment
	w.SetSenderHook(func(_ sim.Time, _, _ graph.NodeID, _ string, _ uint64, payload any) (any, bool) {
		if m, ok := payload.(echoSetMsg); ok {
			sent = append(sent, shipment{m.Contrib, digestContrib(0, m.Contrib)})
		}
		return nil, false
	})
	proto.Launch(w, 1)
	e.RunUntil(300)
	w.Close()

	maps := map[uintptr]bool{}
	for i, s := range sent {
		maps[reflect.ValueOf(s.contrib).Pointer()] = true
		if got := digestContrib(0, s.contrib); got != s.digest {
			t.Fatalf("push %d: its contributor map changed after it was sent (%d entries now)", i, len(s.contrib))
		}
	}
	if len(maps) >= len(sent) {
		t.Fatalf("%d pushes shipped %d distinct maps: no push shared its version's snapshot", len(sent), len(maps))
	}
	fabricated := false
	for id := range w.Proc(1).Behavior().(*echoWaveBehavior).known {
		fabricated = fabricated || id >= fabricatedBase
	}
	if !fabricated {
		t.Fatal("no corrupted copy reached the querier: the tamper path went unexercised")
	}
}

// TestEchoPayloadAccountingUnchanged pins E16's exact-wave cost columns
// for seed 1 — total contributor entries shipped and the largest single
// message — at the figures the copy-per-push wave produced: sharing one
// snapshot per version still counts every push at its full size.
func TestEchoPayloadAccountingUnchanged(t *testing.T) {
	for _, c := range []struct {
		n              int
		entries, maxes int64
	}{{16, 2482, 16}, {32, 16704, 32}, {64, 95358, 64}} {
		e := sim.New()
		echo := &EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 3000}
		w := node.NewWorld(e, topology.NewManual(), echo.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
		joinCycle(w, c.n)
		echo.Launch(w, 1)
		e.RunUntil(sim.Time(40*c.n + 2000))
		if echo.PayloadEntries() != c.entries || echo.MaxPayload() != c.maxes {
			t.Errorf("n=%d: PayloadEntries %d, MaxPayload %d; want %d, %d",
				c.n, echo.PayloadEntries(), echo.MaxPayload(), c.entries, c.maxes)
		}
	}
}
