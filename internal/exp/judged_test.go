package exp

import (
	"reflect"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkJudgedEchoWave is one judged world end to end: a 64-entity
// random-k(3) overlay under churn running the echo wave to a 500-tick
// horizon, recorded with a full trace, then judged by a post-hoc replay
// of the OTQ judge and class inference. It puts the judged path — the event log,
// the protocol's ticks and pushes, and both judges — under the
// allocation gate.
func BenchmarkJudgedEchoWave(b *testing.B) {
	benchJudged(b, func() otq.Protocol {
		return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 5000}
	})
}

// BenchmarkJudgedRepeatedFlood is the same judged world running the
// repeated TTL flood, as judged-batch runs it: every round relays one
// report per member back toward the querier, which puts the flood's
// contribution bundles under the allocation gate.
func BenchmarkJudgedRepeatedFlood(b *testing.B) {
	benchJudged(b, func() otq.Protocol {
		return &otq.RepeatedFlood{TTL: 8, MaxLatency: 2, MaxRounds: 10, QuietRounds: 2}
	})
}

func benchJudged(b *testing.B, proto func() otq.Protocol) {
	sc := Scenario{
		Seed:    1,
		Overlay: func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, 3) },
		Churn: churn.Config{
			InitialPopulation: 64,
			Immortal:          true,
			ArrivalRate:       64.0 / 2000,
			Session:           churn.ExpSessions(80),
		},
		Protocol:   proto,
		MinLatency: 1, MaxLatency: 2,
		QueryAt: 125,
		Horizon: 500,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := Execute(sc); res.Trace.Len() == 0 {
			b.Fatal("the judged world recorded nothing")
		}
	}
}

// TestClassJudgeLiveOnFaultedWorld runs a chordal 16-ring under a fault
// plan with a crash–recovery and announced rejoins, once fully retained
// and once count-only, with class judges registered on Trace.Stream
// before the first Record. On the retained run the live judges agree with
// the post-hoc replays; on the count-only run, which keeps no event to
// replay, they reach the same class and report.
func TestClassJudgeLiveOnFaultedWorld(t *testing.T) {
	declared := core.Class{Size: core.SizeBoundedKnown, B: 15, Geo: core.GeoDiameterKnown, D: 3, EventuallyStable: true}
	run := func(countOnly bool) (*core.Trace, core.Class, core.CheckReport) {
		engine := sim.New()
		proto := digestEcho()
		w := node.NewWorld(engine, manualOverlay(1), proto.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
		w.Trace.SetCountOnly(countOnly)
		infer, check := core.NewClassJudge(nil), core.NewClassJudge(&declared)
		w.Trace.Stream(infer.Observe)
		w.Trace.Stream(check.Observe)
		stop := mustPlan("crash:nodes=4,recover=50@60;rejoin:nodes=3+9,down=20@80;seed=5").Attach(w)
		chordScript(16)(w, engine)
		engine.RunUntil(25)
		proto.Launch(w, 1)
		engine.RunUntil(600)
		stop()
		w.Close()
		return w.Trace, infer.Class(w.Trace.End()), check.Report(w.Trace.End())
	}
	full, class, rep := run(false)
	for _, tag := range []string{core.MarkCrash, core.MarkRecover, core.MarkRejoin} {
		if _, ok := full.FirstMark(tag); !ok {
			t.Fatalf("the run recorded no %q mark: the fault plan went untested", tag)
		}
	}
	if want := core.InferClass(full); class != want {
		t.Errorf("live class %s, replay %s", class, want)
	}
	if want := core.CheckClass(full, declared); !reflect.DeepEqual(rep, want) {
		t.Errorf("live report\n%+v\nreplay\n%+v", rep, want)
	}
	if rep.OK() {
		t.Errorf("the declared class %s held: the violation path went untested", declared)
	}
	lite, liteClass, liteRep := run(true)
	if n := len(lite.Events()); n != 0 || lite.Len() != full.Len() {
		t.Fatalf("count-only trace retained %d events and counted %d, want 0 and %d", n, lite.Len(), full.Len())
	}
	if liteClass != class || !reflect.DeepEqual(liteRep, rep) {
		t.Errorf("count-only judges read %s and\n%+v\nthe retained run %s and\n%+v", liteClass, liteRep, class, rep)
	}
}
