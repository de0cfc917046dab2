package otq

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// staticWorld builds a world over the given overlay with n entities joined
// at t=0 and the engine advanced past the joins.
func staticWorld(t *testing.T, ov topology.Overlay, proto Protocol, n int) (*node.World, *sim.Engine) {
	t.Helper()
	e := sim.New()
	w := node.NewWorld(e, ov, proto.Factory(), node.Config{MinLatency: 1, MaxLatency: 1, Seed: 1})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	return w, e
}

func defaultValue(id graph.NodeID) float64 { return float64(id) }

// ringOverlay builds a deterministic n-cycle in a Manual overlay so tests
// know exact distances (overlay Ring splices randomly).
func ringOverlay(n int) *topology.Manual {
	return topology.NewManual()
}

func joinCycle(w *node.World, n int) {
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i <= n; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
	}
}

func TestFloodMeshValid(t *testing.T) {
	proto := &FloodTTL{TTL: 1, MaxLatency: 1}
	w, e := staticWorld(t, topology.NewMesh(), proto, 10)
	run := proto.Launch(w, 1)
	e.RunUntil(1000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("flood on mesh: %v (missed %v)", out, out.MissedStable)
	}
	ans := run.Answer()
	if got := ans.Result(agg.Count); got != 10 {
		t.Fatalf("count = %v, want 10", got)
	}
	if got := ans.Result(agg.Sum); got != 55 {
		t.Fatalf("sum = %v, want 55", got)
	}
	if got := ans.Result(agg.Min); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
}

func TestFloodRingSufficientTTL(t *testing.T) {
	const n = 16 // cycle diameter 8
	e := sim.New()
	proto := &FloodTTL{TTL: 8, MaxLatency: 1}
	w := node.NewWorld(e, ringOverlay(n), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(1000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("flood TTL=diameter on ring(16): %v, missed %v", out, out.MissedStable)
	}
	if out.CoveredStable != n {
		t.Fatalf("covered %d/%d", out.CoveredStable, n)
	}
}

// Claim C2 witness: with TTL below the diameter, flooding terminates but
// misses stable participants beyond its horizon.
func TestFloodRingInsufficientTTL(t *testing.T) {
	const n = 16
	e := sim.New()
	proto := &FloodTTL{TTL: 3, MaxLatency: 1}
	w := node.NewWorld(e, ringOverlay(n), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(1000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.Terminated {
		t.Fatal("TTL flood must terminate regardless of coverage")
	}
	if out.Valid() {
		t.Fatal("TTL=3 on a diameter-8 ring cannot be valid")
	}
	// TTL 3 covers 3 hops each way around the cycle plus the querier: 7.
	if out.CoveredStable != 7 {
		t.Fatalf("covered %d stable, want 7", out.CoveredStable)
	}
	if len(out.MissedStable) != n-7 {
		t.Fatalf("missed %d, want %d", len(out.MissedStable), n-7)
	}
}

func TestFloodDeadline(t *testing.T) {
	proto := &FloodTTL{TTL: 4, MaxLatency: 2}
	w, e := staticWorld(t, topology.NewMesh(), proto, 5)
	run := proto.Launch(w, 1)
	e.RunUntil(1000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	want := core.Time(2*4*2 + 2)
	if out.Duration != want {
		t.Fatalf("flood answered after %d ticks, want exactly the deadline %d", out.Duration, want)
	}
}

func TestFloodLaunchValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"no params": func() {
			proto := &FloodTTL{}
			w, _ := staticWorld(t, topology.NewMesh(), proto, 2)
			proto.Launch(w, 1)
		},
		"absent querier": func() {
			proto := &FloodTTL{TTL: 1, MaxLatency: 1}
			w, _ := staticWorld(t, topology.NewMesh(), proto, 2)
			proto.Launch(w, 99)
		},
		"wrong factory": func() {
			proto := &FloodTTL{TTL: 1, MaxLatency: 1}
			other := &EchoWave{}
			w, _ := staticWorld(t, topology.NewMesh(), other, 2)
			proto.Launch(w, 1)
		},
		"double launch": func() {
			proto := &FloodTTL{TTL: 1, MaxLatency: 1}
			w, _ := staticWorld(t, topology.NewMesh(), proto, 2)
			proto.Launch(w, 1)
			proto.Launch(w, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEchoWaveStaticRingValidWithoutDiameterKnowledge(t *testing.T) {
	const n = 24
	e := sim.New()
	proto := &EchoWave{RescanInterval: 3, QuietFor: 40}
	w := node.NewWorld(e, ringOverlay(n), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(5000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("echo wave on static ring: %v, missed %v", out, out.MissedStable)
	}
	if run.Answer().Result(agg.Count) != n {
		t.Fatalf("count = %v, want %d", run.Answer().Result(agg.Count), n)
	}
}

func TestEchoWaveCoversLateJoiner(t *testing.T) {
	// A node joining mid-query and staying connected is picked up by the
	// anti-entropy rescan even though the initial wave predates it.
	e := sim.New()
	proto := &EchoWave{RescanInterval: 3, QuietFor: 60}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, 4)
	run := proto.Launch(w, 1)
	e.RunUntil(10)
	w.Join(5)
	w.SetLink(4, 5, true)
	e.RunUntil(5000)
	w.Close()
	if run.Answer() == nil {
		t.Fatal("echo wave did not terminate")
	}
	if _, ok := run.Answer().Contributors[5]; !ok {
		t.Fatal("late joiner not covered by rescan")
	}
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("echo wave with late joiner: %v", out)
	}
}

// Claim C3 witness: perpetual adversarial growth starves the quiescence
// test — the querier never answers within the horizon.
func TestEchoWaveStarvedByAdversarialGrowth(t *testing.T) {
	e := sim.New()
	proto := &EchoWave{RescanInterval: 3, QuietFor: 30, MaxRescans: 100000}
	ov := topology.NewGrowingPath()
	w := node.NewWorld(e, ov, proto.Factory(), node.Config{Seed: 1})
	w.Join(1)
	w.Join(2)
	run := proto.Launch(w, 1)
	// One fresh entity every 8 ticks, forever (arrivals outpace the
	// 30-tick quiescence window).
	next := graph.NodeID(3)
	var spawn func()
	spawn = func() {
		w.Join(next)
		next++
		e.After(8, spawn)
	}
	e.After(8, spawn)
	e.RunUntil(1200)
	w.Close()
	if run.Answer() != nil {
		t.Fatalf("echo wave answered at %d despite perpetual growth", run.Answer().At)
	}
}

func TestExpandingRingStaticValid(t *testing.T) {
	const n = 12
	e := sim.New()
	proto := &ExpandingRing{MaxLatency: 1, MaxTTL: 64}
	w := node.NewWorld(e, ringOverlay(n), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(5000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.OK() {
		t.Fatalf("expanding ring on static cycle: %v, missed %v", out, out.MissedStable)
	}
}

// Claim C2/C3 witness: a stable member behind a transient partition is
// missed — the fixed-point termination test is fooled by dynamics.
func TestExpandingRingFooledByTransientPartition(t *testing.T) {
	e := sim.New()
	proto := &ExpandingRing{MaxLatency: 1, MaxTTL: 64}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{Seed: 1})
	// Path 1-2-3-4-5; node 5 is present throughout but its link is cut
	// during the probes and healed afterwards.
	for i := 1; i <= 5; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i < 5; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i+1), true)
	}
	w.SetLink(4, 5, false)
	run := proto.Launch(w, 1)
	e.At(200, func() { w.SetLink(4, 5, true) })
	e.RunUntil(5000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.Terminated {
		t.Fatal("expanding ring did not terminate")
	}
	if out.Valid() {
		t.Fatal("expanding ring should have been fooled by the transient partition")
	}
	missed := false
	for _, id := range out.MissedStable {
		if id == 5 {
			missed = true
		}
	}
	if !missed {
		t.Fatalf("expected stable node 5 to be missed, got missed=%v", out.MissedStable)
	}
	// The weaker, reachability-limited validity EXCUSES this miss: node 5
	// was unreachable from the querier for the whole query (the link
	// healed only after the answer). The strong verdict censures the
	// class; the weak one acquits the protocol.
	if !out.ReachableValid() {
		t.Fatalf("transient-partition miss not excused: %v", out.MissedReachableStable)
	}
}

func TestReachableValidityDoesNotExcuseShortTTL(t *testing.T) {
	// Flood with TTL below the diameter: the missed nodes were perfectly
	// reachable, so even the weak validity fails.
	const n = 16
	e := sim.New()
	proto := &FloodTTL{TTL: 3, MaxLatency: 1}
	w := node.NewWorld(e, ringOverlay(n), proto.Factory(), node.Config{Seed: 1})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(1000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if out.ReachableValid() {
		t.Fatal("short TTL excused by reachability: the missed nodes were reachable")
	}
	if len(out.MissedReachableStable) != len(out.MissedStable) {
		t.Fatalf("static reachable misses %d != all misses %d",
			len(out.MissedReachableStable), len(out.MissedStable))
	}
}

func TestExpandingRingCapAnswers(t *testing.T) {
	// With MaxTTL 2 on a diameter-5 path, the cap forces an answer.
	e := sim.New()
	proto := &ExpandingRing{MaxLatency: 1, MaxTTL: 2}
	w := node.NewWorld(e, topology.NewGrowingPath(), proto.Factory(), node.Config{Seed: 1})
	for i := 1; i <= 6; i++ {
		w.Join(graph.NodeID(i))
	}
	run := proto.Launch(w, 1)
	e.RunUntil(5000)
	w.Close()
	out := Check(w.Trace, run, defaultValue)
	if !out.Terminated {
		t.Fatal("capped expanding ring did not terminate")
	}
	if out.Valid() {
		t.Fatal("cap below diameter cannot be valid")
	}
}

func TestGossipEstimatesMean(t *testing.T) {
	const n = 20
	proto := &GossipPushSum{RoundInterval: 2, Rounds: 120, Seed: 7}
	w, e := staticWorld(t, topology.NewMesh(), proto, n)
	run := proto.Launch(w, 1)
	e.RunUntil(2000)
	w.Close()
	ans := run.Answer()
	if ans == nil {
		t.Fatal("gossip did not answer")
	}
	trueMean := float64(n+1) / 2 // values 1..n
	got := ans.Result(agg.Mean)
	if got < trueMean*0.95 || got > trueMean*1.05 {
		t.Fatalf("gossip mean = %v, want ~%v", got, trueMean)
	}
	// Gossip never names contributors: exactly-Valid is impossible.
	out := Check(w.Trace, run, defaultValue)
	if out.Valid() {
		t.Fatal("gossip should not be exactly valid")
	}
	if !out.Terminated {
		t.Fatal("gossip must terminate")
	}
}

func TestGossipMassConservationStatic(t *testing.T) {
	// In a static run the total (s, w) mass is conserved, so the average
	// of all estimates equals the true mean even before convergence.
	const n = 10
	proto := &GossipPushSum{RoundInterval: 2, Rounds: 10, Seed: 3}
	w, e := staticWorld(t, topology.NewMesh(), proto, n)
	proto.Launch(w, 1)
	e.RunUntil(61) // mid-flight, not at a send boundary
	var s, wsum float64
	for _, id := range w.Present() {
		b := w.Proc(id).Behavior().(*gossipBehavior)
		s += b.s
		wsum += b.w
	}
	// In-flight messages carry mass; with latency 1 and interval 2 the
	// engine has delivered everything sent by t=60.
	if wsum < 9.99 || wsum > 10.01 {
		t.Fatalf("total weight = %v, want 10", wsum)
	}
	if s < 54.9 || s > 55.1 {
		t.Fatalf("total sum mass = %v, want 55", s)
	}
}

func TestCheckFabricationAndCorruption(t *testing.T) {
	tr := &core.Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Close(100)
	r := &Run{Querier: 1, Started: 10}
	r.resolve(50, map[graph.NodeID]float64{
		1: 1,
		2: 999, // corrupted value
		7: 7,   // never present: fabricated
	})
	out := Check(tr, r, defaultValue)
	if len(out.Fabricated) != 1 || out.Fabricated[0] != 7 {
		t.Fatalf("Fabricated = %v", out.Fabricated)
	}
	if len(out.WrongValue) != 1 || out.WrongValue[0] != 2 {
		t.Fatalf("WrongValue = %v", out.WrongValue)
	}
	if out.Valid() {
		t.Fatal("corrupted answer judged valid")
	}
}

func TestCheckNonTerminated(t *testing.T) {
	tr := &core.Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Close(100)
	r := &Run{Querier: 1, Started: 10}
	out := Check(tr, r, defaultValue)
	if out.Terminated || out.OK() {
		t.Fatal("unanswered run judged terminated")
	}
	if out.StableCount != 2 {
		t.Fatalf("StableCount = %d, want 2", out.StableCount)
	}
	if out.String() == "" {
		t.Fatal("empty outcome string")
	}
}

func TestCheckDepartedContributorLegitimate(t *testing.T) {
	// An entity present at query start that contributed and then left is
	// a legitimate contributor (it is in EverPresent), not fabricated.
	tr := &core.Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Leave(30, 2)
	tr.Close(100)
	r := &Run{Querier: 1, Started: 10}
	r.resolve(50, map[graph.NodeID]float64{1: 1, 2: 2})
	out := Check(tr, r, defaultValue)
	if !out.OK() {
		t.Fatalf("departed contributor flagged: %v fabricated=%v", out, out.Fabricated)
	}
	// 2 is not stable (left mid-query), so stable count is 1.
	if out.StableCount != 1 {
		t.Fatalf("StableCount = %d, want 1", out.StableCount)
	}
}

func TestCheckQuerierLeft(t *testing.T) {
	tr := &core.Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.Leave(50, 1) // the querier departs unanswered
	tr.Close(100)
	r := &Run{Querier: 1, Started: 10}
	out := Check(tr, r, defaultValue)
	if out.Terminated {
		t.Fatal("unanswered run judged terminated")
	}
	if !out.QuerierLeft {
		t.Fatal("departed querier not flagged")
	}
	if out.String() == "no answer (did not terminate)" {
		t.Fatal("String does not distinguish a moot query")
	}
	// A querier still present is genuine non-termination.
	r2 := &Run{Querier: 2, Started: 10}
	if out2 := Check(tr, r2, defaultValue); out2.QuerierLeft {
		t.Fatal("present querier flagged as departed")
	}
}

func TestRunResolveOnce(t *testing.T) {
	r := &Run{Querier: 1, Started: 0}
	r.resolve(10, map[graph.NodeID]float64{1: 1})
	r.resolve(20, map[graph.NodeID]float64{1: 1, 2: 2})
	if r.Answer().At != 10 || len(r.Answer().Contributors) != 1 {
		t.Fatal("second resolve overwrote the answer")
	}
}

func TestProtocolNamesMatchOracle(t *testing.T) {
	protos := map[string]Protocol{
		string(core.ProtoFloodTTL):      &FloodTTL{},
		string(core.ProtoEchoWave):      &EchoWave{},
		string(core.ProtoExpandingRing): &ExpandingRing{},
		string(core.ProtoGossip):        &GossipPushSum{},
	}
	for want, p := range protos {
		if p.Name() != want {
			t.Errorf("protocol name %q does not match oracle ID %q", p.Name(), want)
		}
	}
}
