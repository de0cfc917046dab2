package adversary

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/sim"
	"repro/internal/topology"
)

func joinPath(w *node.World, n int) {
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
}

func TestFrontierGrowerStarvesEchoWave(t *testing.T) {
	e := sim.New()
	proto := &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 100000}
	w := node.NewWorld(e, topology.NewGrowingPath(), proto.Factory(), node.Config{Seed: 1})
	joinPath(w, 4)
	run := proto.Launch(w, 1)
	adv := &FrontierGrower{Every: 8}
	stop := adv.Attach(w)
	e.RunUntil(1500)
	stop()
	w.Close()
	if run.Answer() != nil {
		t.Fatalf("echo wave answered at %d against the frontier grower", run.Answer().At)
	}
	if len(w.Trace.Entities()) < 100 {
		t.Fatalf("adversary only grew the system to %d entities", len(w.Trace.Entities()))
	}
}

func TestFrontierGrowerStoppable(t *testing.T) {
	e := sim.New()
	proto := &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 100000}
	w := node.NewWorld(e, topology.NewGrowingPath(), proto.Factory(), node.Config{Seed: 1})
	joinPath(w, 4)
	run := proto.Launch(w, 1)
	adv := &FrontierGrower{Every: 8}
	stop := adv.Attach(w)
	e.RunUntil(300)
	stop() // adversary gives up: the run becomes eventually stable
	e.RunUntil(3000)
	w.Close()
	if run.Answer() == nil {
		t.Fatal("echo wave did not recover once the adversary stopped")
	}
	out := otq.Check(w.Trace, run, nil)
	if !out.Valid() {
		t.Fatalf("post-adversary answer invalid: %v (missed %v)", out, out.MissedStable)
	}
}

func TestPartitionerFoolsExpandingRing(t *testing.T) {
	e := sim.New()
	proto := &otq.ExpandingRing{MaxLatency: 1, MaxTTL: 64}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{Seed: 3})
	for i := 1; i <= 5; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i < 5; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i+1), true)
	}
	adv := &Partitioner{Victim: 5, CutAt: 1, HealAt: 400}
	stop := adv.Attach(w)
	// Launch after the cut so the probes run during the outage.
	var run *otq.Run
	e.At(2, func() { run = proto.Launch(w, 1) })
	e.RunUntil(3000)
	stop()
	w.Close()
	out := otq.Check(w.Trace, run, nil)
	if !out.Terminated {
		t.Fatal("expanding ring did not terminate")
	}
	if out.Valid() {
		t.Fatal("partitioner failed to fool the fixed-point test")
	}
	// But the weak validity excuses it if the answer landed during the
	// outage — the miss was unreachable.
	if out.Duration < 398 && !out.ReachableValid() {
		t.Fatalf("in-outage miss should be excused: %v", out.MissedReachableStable)
	}
}

func TestPartitionerRestoresLinks(t *testing.T) {
	e := sim.New()
	w := node.NewWorld(e, topology.NewManual(), nil, node.Config{Seed: 4})
	for i := 1; i <= 3; i++ {
		w.Join(graph.NodeID(i))
	}
	w.SetLink(1, 2, true)
	w.SetLink(2, 3, true)
	adv := &Partitioner{Victim: 2, CutAt: 10, HealAt: 50}
	adv.Attach(w)
	e.RunUntil(20)
	if w.Overlay.Graph().Degree(2) != 0 {
		t.Fatal("victim not isolated during the outage")
	}
	e.RunUntil(60)
	g := w.Overlay.Graph()
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 3) {
		t.Fatal("links not restored after the outage")
	}
}

func TestNames(t *testing.T) {
	for _, name := range []string{(*FrontierGrower).Name(nil), (*EdgeFlipper).Name(nil), (*Partitioner).Name(nil)} {
		if name == "" {
			t.Error("empty strategy name")
		}
	}
}

func TestEdgeFlipperKeepsCycleConnected(t *testing.T) {
	e := sim.New()
	w := node.NewWorld(e, topology.NewManual(), nil, node.Config{Seed: 5})
	const n = 10
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i <= n; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
	}
	adv := &EdgeFlipper{Every: 15, Outage: 7, Seed: 5}
	stop := adv.Attach(w)
	flapped := false
	probe := e.Every(1, func() {
		g := w.Overlay.Graph()
		if !g.Connected() {
			t.Error("cycle minus flapped edges disconnected")
		}
		if g.NumEdges() < n {
			flapped = true
		}
	})
	e.RunUntil(600)
	stop()
	probe.Stop()
	if !flapped {
		t.Fatal("flipper never cut an edge")
	}
	// All edges eventually restored (membership never changed).
	e.RunUntil(700)
	w.Close()
	if w.Overlay.Graph().NumEdges() != n {
		t.Fatalf("edges not restored: %d of %d", w.Overlay.Graph().NumEdges(), n)
	}
	// Pure link dynamics: no membership events after the joins.
	if got := w.Trace.MaxConcurrency(); got != n {
		t.Fatalf("membership changed: max concurrency %d", got)
	}
}

func TestEdgeFlipperDamagesFloodNotEcho(t *testing.T) {
	run := func(proto otq.Protocol) otq.Outcome {
		e := sim.New()
		w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: 6,
		})
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
		adv := &EdgeFlipper{Every: 10, Outage: 8, Seed: 6}
		stop := adv.Attach(w)
		var r *otq.Run
		e.At(25, func() { r = proto.Launch(w, 1) })
		e.RunUntil(4000)
		stop()
		w.Close()
		return otq.Check(w.Trace, r, nil)
	}
	flood := run(&otq.FloodTTL{TTL: 8, MaxLatency: 2})
	echo := run(&otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000})
	if flood.Valid() {
		t.Fatal("fixture too weak: flooding survived heavy link flapping")
	}
	if !echo.Terminated || !echo.Valid() {
		t.Fatalf("anti-entropy wave should absorb link flapping: %v (missed %v)",
			echo, echo.MissedStable)
	}
}
