package otq

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestTreeEchoStaticCycleExact(t *testing.T) {
	const n = 20
	e := sim.New()
	proto := &TreeEcho{}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(2000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("tree echo on static cycle: %v, missed %v", out, out.MissedStable)
	}
	if out.CoveredStable != n {
		t.Fatalf("covered %d/%d", out.CoveredStable, n)
	}
	// Termination is intrinsic (wave collapse), not timeout-based: on a
	// cycle of 20 with latency 1, the wave is out and back well within
	// 4*n ticks.
	if out.Duration > 4*n {
		t.Fatalf("tree echo took %d ticks on a %d-cycle", out.Duration, n)
	}
}

func TestTreeEchoStaticMeshMessageShape(t *testing.T) {
	const n = 10
	e := sim.New()
	proto := &TreeEcho{}
	w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 1})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	run := proto.Launch(w, 1)
	e.RunUntil(500)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("tree echo on mesh: %v", out)
	}
	// Classic echo complexity: a tree edge carries 2 messages (query
	// down, echo up); a non-tree edge at most 4 (crossing queries plus
	// the immediate releasing echoes).
	ms := w.Trace.Messages("")
	edges := n * (n - 1) / 2
	if ms.Sent > 4*edges {
		t.Fatalf("echo sent %d messages on %d edges (> 4 per edge)", ms.Sent, edges)
	}
}

// A child that leaves mid-wave deadlocks the un-instrumented echo: the
// querier never answers. This is the sharpest static-vs-dynamic contrast.
func TestTreeEchoDeadlocksWithoutDetection(t *testing.T) {
	e := sim.New()
	proto := &TreeEcho{DetectDepartures: false}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{
		MinLatency: 2, MaxLatency: 2, Seed: 1,
	})
	// Path 1-2-3: node 2 relays; it leaves right after forwarding the
	// query but before 3's echo returns through it.
	for i := 1; i <= 3; i++ {
		w.Join(graph.NodeID(i))
	}
	w.SetLink(1, 2, true)
	w.SetLink(2, 3, true)
	run := proto.Launch(w, 1)
	e.At(5, func() {
		w.Leave(2)
		// Repair so the graph stays connected: 1-3 direct.
		w.SetLink(1, 3, true)
	})
	e.RunUntil(3000)
	w.Close()
	if run.Answer() != nil {
		t.Fatalf("echo answered at %d despite a swallowed echo", run.Answer().At)
	}
}

func TestTreeEchoDetectionRestoresTermination(t *testing.T) {
	e := sim.New()
	proto := &TreeEcho{DetectDepartures: true, CheckInterval: 3}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{
		MinLatency: 2, MaxLatency: 2, Seed: 1,
	})
	for i := 1; i <= 3; i++ {
		w.Join(graph.NodeID(i))
	}
	w.SetLink(1, 2, true)
	w.SetLink(2, 3, true)
	run := proto.Launch(w, 1)
	e.At(5, func() {
		w.Leave(2)
		w.SetLink(1, 3, true)
	})
	e.RunUntil(3000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.Terminated {
		t.Fatal("detection did not restore termination")
	}
	// Node 3 is stable but its subtree was swallowed with node 2: the
	// price of writing children off is Validity.
	if out.Valid() {
		t.Fatal("expected a validity violation after the relay died")
	}
	missed := false
	for _, id := range out.MissedStable {
		if id == 3 {
			missed = true
		}
	}
	if !missed {
		t.Fatalf("expected stable node 3 missed, got %v", out.MissedStable)
	}
}

// A crash, unlike a leave, leaves the entity's edges stale: the crashed
// child stays a neighbor, so DetectDepartures never writes it off and the
// wave deadlocks. Without the crash the same world answers.
func TestTreeEchoCrashStaleEdgesDeadlockWithoutFD(t *testing.T) {
	for _, crash := range []bool{false, true} {
		e := sim.New()
		proto := &TreeEcho{DetectDepartures: true, CheckInterval: 4}
		w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{
			MinLatency: 3, MaxLatency: 4, Seed: 1,
		})
		for i := 1; i <= 4; i++ {
			w.Join(graph.NodeID(i))
		}
		run := proto.Launch(w, 1)
		if crash {
			e.At(2, func() { w.Crash(3) }) // before the query reaches entity 3
		}
		e.RunUntil(2000)
		w.Close()
		if answered := run.Answer() != nil; answered == crash {
			t.Fatalf("crash=%v: answered=%v", crash, answered)
		}
	}
}

func TestTreeEchoNonTreeEdgesReleased(t *testing.T) {
	// A 4-clique has many non-tree edges; every one must be released by
	// an immediate empty echo or the wave deadlocks.
	e := sim.New()
	proto := &TreeEcho{}
	w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 3, MinLatency: 1, MaxLatency: 3})
	for i := 1; i <= 4; i++ {
		w.Join(graph.NodeID(i))
	}
	run := proto.Launch(w, 2)
	e.RunUntil(500)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("tree echo on clique: %v", out)
	}
}

func TestTreeEchoSingleton(t *testing.T) {
	e := sim.New()
	proto := &TreeEcho{}
	w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 1})
	w.Join(7)
	run := proto.Launch(w, 7)
	e.RunUntil(100)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() || out.CoveredStable != 1 {
		t.Fatalf("singleton echo: %v", out)
	}
	if run.Answer().At != 0 {
		t.Fatalf("singleton echo answered at %d, want immediately", run.Answer().At)
	}
}

func TestTreeEchoLaunchValidation(t *testing.T) {
	proto := &TreeEcho{}
	w, _ := staticWorld(t, topology.NewMesh(), proto, 2)
	proto.Launch(w, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double launch did not panic")
		}
	}()
	proto.Launch(w, 2)
}

func TestRepeatedFloodRecoversFromLoss(t *testing.T) {
	// With 25% message loss a single flood on a mesh misses several
	// members (query or report dropped); repetition over the same TTL
	// recovers them. Compared on identically-seeded runs.
	const n = 16
	mkRun := func(proto Protocol) Outcome {
		e := sim.New()
		w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, LossRate: 0.25, Seed: 5,
		})
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		run := proto.Launch(w, 1)
		e.RunUntil(3000)
		w.Close()
		return Check(w.Trace, run, defaultValue)
	}
	single := mkRun(&FloodTTL{TTL: 1, MaxLatency: 2})
	repeated := mkRun(&RepeatedFlood{TTL: 1, MaxLatency: 2, MaxRounds: 20, QuietRounds: 5})
	if !single.Terminated || !repeated.Terminated {
		t.Fatal("both protocols must terminate")
	}
	if single.Valid() {
		t.Fatalf("single flood at 25%% loss unexpectedly covered everyone (%d/%d): weak fixture",
			single.CoveredStable, single.StableCount)
	}
	if repeated.CoveredStable <= single.CoveredStable {
		t.Fatalf("repetition covered %d <= single flood's %d", repeated.CoveredStable, single.CoveredStable)
	}
	if !repeated.Valid() {
		t.Fatalf("repeated flood should recover everyone at 25%% loss: %v (missed %v)",
			repeated, repeated.MissedStable)
	}
}

func TestRepeatedFloodStopsAtFixedPoint(t *testing.T) {
	// Lossless static run: rounds 2 and 3 add nothing (two consecutive
	// quiet rounds), so exactly 3 rounds run.
	const n = 8
	e := sim.New()
	proto := &RepeatedFlood{TTL: n / 2, MaxLatency: 2, MaxRounds: 10}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(3000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("repeated flood static: %v", out)
	}
	roundLen := int64(2*(n/2)*2 + 2)
	if out.Duration != 3*roundLen {
		t.Fatalf("duration %d, want exactly three rounds (%d)", out.Duration, 3*roundLen)
	}
}

func TestRepeatedFloodValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad params did not panic")
		}
	}()
	proto := &RepeatedFlood{}
	w, _ := staticWorld(t, topology.NewMesh(), proto, 2)
	proto.Launch(w, 1)
}

func TestNewProtocolNamesMatchOracle(t *testing.T) {
	if (&TreeEcho{}).Name() != string(core.ProtoTreeEcho) {
		t.Error("tree-echo name mismatch")
	}
	if (&RepeatedFlood{}).Name() != string(core.ProtoRepeatedFlood) {
		t.Error("flood-repeat name mismatch")
	}
}

func TestPredictNewProtocols(t *testing.T) {
	static := core.Class{Size: core.SizeStatic, B: 8, Geo: core.GeoDiameterKnown, D: 4, EventuallyStable: true}
	churny := core.Class{Size: core.SizeBoundedUnknown, Geo: core.GeoDiameterKnown, D: 4}
	if p := core.PredictOTQ(core.ProtoTreeEcho, static); !p.Terminates || !p.Valid {
		t.Errorf("tree-echo static: %+v", p)
	}
	if p := core.PredictOTQ(core.ProtoTreeEcho, churny); !p.Terminates || p.Valid {
		t.Errorf("tree-echo churny: %+v", p)
	}
	if p := core.PredictOTQ(core.ProtoRepeatedFlood, churny); !p.Terminates || !p.Valid {
		t.Errorf("flood-repeat known-D: %+v", p)
	}
}
