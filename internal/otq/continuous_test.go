package otq

import (
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestContinuousStaticAllEpochsValid(t *testing.T) {
	const n = 12
	e := sim.New()
	proto := &ContinuousFlood{TTL: n / 2, MaxLatency: 2, MaxEpochs: 5}
	w := node.NewWorld(e, topology.NewManual(), proto.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 1,
	})
	joinCycle(w, n)
	run := proto.Launch(w, 1)
	e.RunUntil(3000)
	w.Close()
	out := CheckContinuous(w.Trace, run)
	if out.Epochs != 5 {
		t.Fatalf("Epochs = %d, want 5", out.Epochs)
	}
	if out.ValidRate() != 1 {
		t.Fatalf("static standing query not fully valid: %+v", out)
	}
	if out.MeanAbsCountLag != 0 {
		t.Fatalf("static count lag = %v, want 0", out.MeanAbsCountLag)
	}
	// Epochs are evenly spaced at the configured period.
	answers := run.answers
	epochLen := int64(proto.epoch())
	for i := 1; i < len(answers); i++ {
		if answers[i].StartedAt-answers[i-1].StartedAt != epochLen {
			t.Fatalf("epochs %d and %d started %d apart, want %d",
				i-1, i, answers[i].StartedAt-answers[i-1].StartedAt, epochLen)
		}
	}
}

func TestContinuousTracksGrowingSystem(t *testing.T) {
	// Members join between epochs; successive answers must see the larger
	// system (the standing query tracks change).
	e := sim.New()
	proto := &ContinuousFlood{TTL: 1, MaxLatency: 2, Epoch: 50, MaxEpochs: 4}
	w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 1})
	for i := 1; i <= 4; i++ {
		w.Join(graph.NodeID(i))
	}
	run := proto.Launch(w, 1)
	e.At(60, func() { w.Join(50) })
	e.At(110, func() { w.Join(51) })
	e.RunUntil(1000)
	w.Close()
	answers := run.answers
	if len(answers) != 4 {
		t.Fatalf("%d answers, want 4", len(answers))
	}
	if len(answers[0].Contributors) != 4 {
		t.Fatalf("epoch 1 saw %d members, want 4", len(answers[0].Contributors))
	}
	if len(answers[3].Contributors) != 6 {
		t.Fatalf("epoch 4 saw %d members, want 6", len(answers[3].Contributors))
	}
	out := CheckContinuous(w.Trace, run)
	if out.ValidRate() != 1 {
		t.Fatalf("growing system epochs invalid: %+v", out)
	}
}

func TestContinuousDiesWithQuerier(t *testing.T) {
	e := sim.New()
	proto := &ContinuousFlood{TTL: 1, MaxLatency: 2, Epoch: 40, MaxEpochs: 50}
	w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 1})
	w.Join(1)
	w.Join(2)
	run := proto.Launch(w, 1)
	e.At(90, func() { w.Leave(1) })
	e.RunUntil(5000)
	w.Close()
	// Epochs at t=0 and t=40 answered (deadline 6); the epoch at t=80
	// answers at t=86 (before the leave)... and no epoch after t=90.
	if got := len(run.answers); got > 3 {
		t.Fatalf("standing query outlived its querier: %d answers", got)
	}
}

func TestContinuousValidation(t *testing.T) {
	mkWorld := func(proto *ContinuousFlood) *node.World {
		e := sim.New()
		w := node.NewWorld(e, topology.NewMesh(), proto.Factory(), node.Config{Seed: 1})
		w.Join(1)
		w.Join(2)
		return w
	}
	for name, f := range map[string]func(){
		"no params": func() {
			proto := &ContinuousFlood{}
			proto.Launch(mkWorld(proto), 1)
		},
		"epoch below deadline": func() {
			proto := &ContinuousFlood{TTL: 4, MaxLatency: 2, Epoch: 3}
			proto.Launch(mkWorld(proto), 1)
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

func TestContinuousUnderChurnPartialValidity(t *testing.T) {
	// On a churning ring with a guessed TTL, some epochs are invalid —
	// the per-epoch rate is the standing query's quality signal.
	e := sim.New()
	proto := &ContinuousFlood{TTL: 4, MaxLatency: 2, Epoch: 60, MaxEpochs: 15}
	w := node.NewWorld(e, topology.NewRing(3), proto.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 3,
	})
	gen := churn.New(3, churn.Config{
		InitialPopulation: 24, Immortal: true,
		ArrivalRate: 0.1, Session: churn.ExpSessions(60),
	})
	w.ApplyChurn(gen, 2000)
	e.RunUntil(100)
	run := proto.Launch(w, w.Present()[0])
	e.RunUntil(2000)
	w.Close()
	out := CheckContinuous(w.Trace, run)
	if out.Epochs < 10 {
		t.Fatalf("only %d epochs ran", out.Epochs)
	}
	if out.ValidRate() > 0.5 {
		t.Fatalf("guessed TTL on a 24+-ring should fail most epochs: %+v", out)
	}
	if out.MeanAbsCountLag <= 0 {
		t.Fatalf("count lag should be positive under churn: %+v", out)
	}
}
