package repro_test

// One benchmark per experiment in the DESIGN.md index (E1-E25 and
// E28-E30; the E26/E27 layer benches live next to their layers under
// internal/), each executing a single representative cell
// of that experiment so that `go test -bench=. -benchmem` regenerates
// the cost profile of the whole suite. The full tables themselves are
// produced by cmd/otqbench.

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/broadcast"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/dynreg"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/lookup"
	"repro/internal/node"
	"repro/internal/object/consensus"
	"repro/internal/object/register"
	"repro/internal/omega"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tq"
)

func BenchmarkE1StaticFlood(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewMesh() },
			Churn:   churn.Config{InitialPopulation: 32, Immortal: true},
			Protocol: func() otq.Protocol {
				return &otq.FloodTTL{TTL: 1, MaxLatency: 2}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 10, Horizon: 300,
		})
		if !res.Outcome.OK() {
			b.Fatalf("static flood failed: %v", res.Outcome)
		}
	}
}

func BenchmarkE2Matrix(b *testing.B) {
	// Representative cell: echo wave on a churning ring (unknown-D).
	for i := 0; i < b.N; i++ {
		exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(seed uint64) topology.Overlay { return topology.NewRing(seed) },
			Churn: churn.Config{InitialPopulation: 16, Immortal: true,
				ArrivalRate: 0.1, Session: churn.ExpSessions(80)},
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 1000}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 100, Horizon: 1000,
		})
	}
}

func BenchmarkE3TTLSweep(b *testing.B) {
	// Representative cell: TTL 8 on a diameter-12 cycle (invalid case).
	script := func(w *node.World, _ *sim.Engine) {
		const n = 24
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.FloodTTL{TTL: 8, MaxLatency: 2}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 10, Horizon: 500,
		})
		if res.Outcome.Valid() {
			b.Fatal("TTL below diameter must not be valid")
		}
	}
}

func BenchmarkE4ChurnSweep(b *testing.B) {
	// Representative cell: flood on the star overlay at arrival rate 0.1.
	for i := 0; i < b.N; i++ {
		exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewStar() },
			Churn: churn.Config{InitialPopulation: 24, Immortal: true,
				ArrivalRate: 0.1, Session: churn.ExpSessions(60)},
			Protocol: func() otq.Protocol {
				return &otq.FloodTTL{TTL: 2, MaxLatency: 2}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 100, Horizon: 1000, QuerierIndex: 1,
		})
	}
}

func BenchmarkE5Classify(b *testing.B) {
	// Trace generation under M^b plus class check and inference.
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		w := node.NewWorld(engine, topology.NewRing(uint64(i+1)), nil, node.Config{Seed: uint64(i + 1)})
		gen := churn.New(uint64(i+1), churn.Config{
			InitialPopulation: 24, ArrivalRate: 1,
			Session: churn.ExpSessions(40), MaxConcurrent: 24,
		})
		w.ApplyChurn(gen, 600)
		engine.RunUntil(600)
		w.Close()
		rep := core.CheckClass(w.Trace, core.Class{Size: core.SizeBoundedKnown, B: 24, Geo: core.GeoUnconstrained})
		if !rep.OK() {
			b.Fatalf("M^b trace rejected: %v", rep.Violations)
		}
		core.InferClass(w.Trace)
	}
}

func BenchmarkE6Gossip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, 3) },
			Churn: churn.Config{InitialPopulation: 24, Immortal: true,
				ArrivalRate: 0.05, Session: churn.ExpSessions(60)},
			Protocol: func() otq.Protocol {
				return &otq.GossipPushSum{RoundInterval: 2, Rounds: 100, Seed: uint64(i + 1)}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 100, Horizon: 800,
		})
	}
}

func BenchmarkE7Register(b *testing.B) {
	b.Run("responsive-seq", func(b *testing.B) {
		r, _ := register.NewResponsive(2)
		rd := r.NewReader()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Write(int64(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := rd.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nonresponsive-majority", func(b *testing.B) {
		r, _ := register.NewNonResponsive(2)
		rd := r.NewReader()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.Write(int64(i)); err != nil {
				b.Fatal(err)
			}
			if _, err := rd.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE8Consensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, bases := consensus.NewResponsive(2)
		bases[0].CrashAfter(2, true)
		if _, err := c.Propose(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Loss(b *testing.B) {
	// Representative cell: repeated flood on a lossy mesh.
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewMesh() },
			Churn:   churn.Config{InitialPopulation: 24, Immortal: true},
			Protocol: func() otq.Protocol {
				return &otq.RepeatedFlood{TTL: 1, MaxLatency: 2, MaxRounds: 20, QuietRounds: 4}
			},
			MinLatency: 1, MaxLatency: 2, LossRate: 0.2,
			QueryAt: 10, Horizon: 1000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("repeated flood did not terminate")
		}
	}
}

func BenchmarkE11Scale(b *testing.B) {
	// Representative cell: tree echo on a 64-cycle.
	script := func(w *node.World, _ *sim.Engine) {
		const n = 64
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.TreeEcho{}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 10, Horizon: 2000,
		})
		if !res.Outcome.OK() {
			b.Fatalf("tree echo failed: %v", res.Outcome)
		}
	}
}

func BenchmarkE12Ablation(b *testing.B) {
	// Representative cell: echo wave with a mid-range quiescence window
	// on a churning ring.
	for i := 0; i < b.N; i++ {
		exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(seed uint64) topology.Overlay { return topology.NewRing(seed) },
			Churn: churn.Config{InitialPopulation: 24, Immortal: true,
				ArrivalRate: 0.05, Session: churn.ExpSessions(80)},
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 1000}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 100, Horizon: 1000,
		})
	}
}

func BenchmarkE13DynReg(b *testing.B) {
	// Representative cell: the replicated register under mild churn.
	for i := 0; i < b.N; i++ {
		reg := &dynreg.Register{SpreadInterval: 3, WriteWindow: 60}
		engine := sim.New()
		w := node.NewWorld(engine, topology.NewRing(uint64(i+1)), reg.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: uint64(i + 1),
		})
		gen := churn.New(uint64(i+1), churn.Config{
			InitialPopulation: 16, Immortal: true,
			ArrivalRate: 0.05, Session: churn.ExpSessions(80),
		})
		w.ApplyChurn(gen, 800)
		engine.RunUntil(50)
		reg.Bootstrap(w, 0)
		writes := engine.Every(120, func() { reg.Write(w, 1, float64(engine.Now())) })
		reads := engine.Every(13, func() {
			present := w.Present()
			reg.Read(w, present[int(engine.Now())%len(present)])
		})
		engine.RunUntil(800)
		writes.Stop()
		reads.Stop()
		w.Close()
		if rep := dynreg.Check(w.Trace); rep.Fabricated > 0 {
			b.Fatalf("fabricated reads: %+v", rep)
		}
	}
}

func BenchmarkE14Structured(b *testing.B) {
	// Representative cell: repeated flood over the churning finger ring.
	for i := 0; i < b.N; i++ {
		exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewFingerRing() },
			Churn: churn.Config{InitialPopulation: 2, Immortal: true,
				ArrivalRate: 0.5, Session: churn.ExpSessions(320), MaxConcurrent: 32},
			Protocol: func() otq.Protocol {
				return &otq.RepeatedFlood{TTL: topology.FingerDiameterBound(32), MaxLatency: 2,
					MaxRounds: 6, QuietRounds: 2}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 100, Horizon: 800,
		})
	}
}

func BenchmarkE15Broadcast(b *testing.B) {
	// Representative cell: acknowledged anti-entropy broadcast on a
	// lossy, churning ring.
	for i := 0; i < b.N; i++ {
		bc := &broadcast.Broadcast{AntiEntropy: true, SpreadInterval: 4}
		engine := sim.New()
		w := node.NewWorld(engine, topology.NewRing(uint64(i+1)), bc.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, LossRate: 0.15, Seed: uint64(i + 1),
		})
		gen := churn.New(uint64(i+1), churn.Config{
			InitialPopulation: 24, Immortal: true,
			ArrivalRate: 0.1, Session: churn.ExpSessions(60),
		})
		w.ApplyChurn(gen, 800)
		engine.RunUntil(100)
		bc.Launch(w, w.Present()[0], 1)
		engine.RunUntil(800)
		w.Close()
		if rep := broadcast.Check(w.Trace); !rep.OK() {
			b.Fatalf("anti-entropy broadcast failed: %+v", rep)
		}
	}
}

func BenchmarkE16Sketch(b *testing.B) {
	// Representative cell: sketch wave counting a 64-cycle.
	script := func(w *node.World, _ *sim.Engine) {
		const n = 64
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.SketchWave{Rows: 64, RescanInterval: 3, QuietFor: 40, MaxRescans: 2000}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 10, Horizon: 4000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("sketch wave did not terminate")
		}
	}
}

func BenchmarkE17Lookup(b *testing.B) {
	// Representative cell: one lookup on a 64-member finger ring.
	l := &lookup.Lookup{}
	engine := sim.New()
	w := node.NewWorld(engine, topology.NewFingerRing(), l.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 1,
	})
	for i := 1; i <= 64; i++ {
		w.Join(graph.NodeID(i))
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := l.Launch(w, w.Present()[r.Intn(64)], r.Uint64())
		engine.RunUntil(engine.Now() + 200)
		if run.Result() == nil {
			b.Fatal("lookup unresolved")
		}
	}
}

func BenchmarkE18Continuous(b *testing.B) {
	// Representative cell: standing query on the churning star.
	for i := 0; i < b.N; i++ {
		proto := &otq.ContinuousFlood{TTL: 2, MaxLatency: 2, Epoch: 60, MaxEpochs: 10}
		engine := sim.New()
		w := node.NewWorld(engine, topology.NewStar(), proto.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: uint64(i + 1),
		})
		gen := churn.New(uint64(i+1), churn.Config{
			InitialPopulation: 24, Immortal: true,
			ArrivalRate: 0.1, Session: churn.ExpSessions(60),
		})
		w.ApplyChurn(gen, 800)
		engine.RunUntil(100)
		run := proto.Launch(w, w.Present()[1])
		engine.RunUntil(800)
		w.Close()
		if out := otq.CheckContinuous(w.Trace, run); out.Epochs == 0 {
			b.Fatal("no epochs answered")
		}
	}
}

func BenchmarkE19Omega(b *testing.B) {
	// Representative cell: leader election on a churning, eventually
	// quiescent ring.
	for i := 0; i < b.N; i++ {
		el := &omega.Elector{Beat: 5, Timeout: 250}
		engine := sim.New()
		w := node.NewWorld(engine, topology.NewRing(uint64(i+1)), el.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: uint64(i + 1),
		})
		gen := churn.New(uint64(i+1), churn.Config{
			InitialPopulation: 20, ArrivalRate: 0.1,
			Session: churn.ExpSessions(80), QuiesceAt: 600,
		})
		w.ApplyChurn(gen, 1000)
		engine.RunUntil(1000)
		if _, frac := omega.Agreement(w); frac == 0 && len(w.Present()) > 0 {
			b.Fatal("no agreement sampled")
		}
	}
}

func BenchmarkE20Flapping(b *testing.B) {
	// Representative cell: flood on a flapping 16-cycle.
	for i := 0; i < b.N; i++ {
		engine := sim.New()
		proto := &otq.FloodTTL{TTL: 8, MaxLatency: 2}
		w := node.NewWorld(engine, topology.NewManual(), proto.Factory(), node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: uint64(i + 1),
		})
		const n = 16
		for k := 1; k <= n; k++ {
			w.Join(graph.NodeID(k))
		}
		for k := 1; k <= n; k++ {
			w.SetLink(graph.NodeID(k), graph.NodeID(k%n+1), true)
		}
		adv := &adversary.EdgeFlipper{Every: 20, Outage: 16, Seed: uint64(i + 1)}
		stop := adv.Attach(w)
		engine.RunUntil(25)
		run := proto.Launch(w, 1)
		engine.RunUntil(600)
		stop()
		w.Close()
		if run.Answer() == nil {
			b.Fatal("flood did not answer")
		}
	}
}

func BenchmarkE21FaultStorm(b *testing.B) {
	// Representative cell: the echo wave over reliable channels on a
	// 16-cycle under the full storm (burst + reorder + spike + blackout +
	// crash–recovery), judged with recovery bridging.
	plan, err := fault.Parse("burst:pgb=0.08,pbg=0.2,lossbad=0.95;reorder:p=0.2,window=6;" +
		"spike:nodes=5+9,delay=3@25-400;blackout:pair=2>3@40-160;crash:nodes=4+12,recover=50@60;seed=33")
	if err != nil {
		b.Fatal(err)
	}
	script := func(w *node.World, _ *sim.Engine) {
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
			},
			MinLatency: 1, MaxLatency: 2,
			Faults:           plan,
			Reliable:         node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
			BridgeRecoveries: true,
			QueryAt:          25, Horizon: 3000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("echo wave under the storm did not terminate")
		}
	}
}

func BenchmarkE22ByzantineStorm(b *testing.B) {
	// Representative cell: the echo wave over reliable+authenticated
	// channels on a 16-cycle under the combined Byzantine storm
	// (corruption + replay + forgery from compromised entities 3 and 7).
	plan, err := fault.Parse("corrupt:nodes=3+7,p=0.25;replay:nodes=3+7,p=0.3,window=12;" +
		"forge:nodes=7,as=5,p=0.6;seed=33")
	if err != nil {
		b.Fatal(err)
	}
	script := func(w *node.World, _ *sim.Engine) {
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
			},
			MinLatency: 1, MaxLatency: 2,
			Faults:   plan,
			Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
			Auth:     node.AuthConfig{Enabled: true},
			QueryAt:  25, Horizon: 3000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("echo wave under the Byzantine storm did not terminate")
		}
		if len(res.Outcome.Fabricated) > 0 || len(res.Outcome.WrongValue) > 0 {
			b.Fatal("authenticated channels accepted tampered contributions")
		}
	}
}

func BenchmarkE23EquivAudit(b *testing.B) {
	// Representative cell: the echo wave over reliable+authenticated
	// channels with the audit sublayer on a chordal 16-ring, with entity 3
	// equivocating toward its mutually-adjacent victims and paroled
	// quarantines.
	plan, err := fault.Parse("equiv:nodes=3,peers=2+4,p=1;seed=33")
	if err != nil {
		b.Fatal(err)
	}
	script := func(w *node.World, _ *sim.Engine) {
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
			w.SetLink(graph.NodeID(i), graph.NodeID((i+1)%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
			},
			MinLatency: 1, MaxLatency: 2,
			Faults:   plan,
			Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
			Auth:     node.AuthConfig{Enabled: true, Parole: 150},
			Audit:    node.AuditConfig{Enabled: true, GossipBudget: 32},
			QueryAt:  25, Horizon: 3000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("echo wave under equivocation did not terminate")
		}
		if !res.Outcome.ValidModuloProven() {
			b.Fatalf("audit arm lost ValidModuloProven: %v", res.Outcome)
		}
	}
}

func BenchmarkE24ColludePull(b *testing.B) {
	// Representative cell: the stretched echo wave on the chordal 16-ring
	// with entity 3 colluding — partitioned victims, silence toward
	// everyone else — and the audit sublayer running receipt pull
	// anti-entropy (TTL 2) over pinned retention.
	plan, err := fault.Parse("collude:nodes=3,peers=1+5,groups=2,p=1;seed=33")
	if err != nil {
		b.Fatal(err)
	}
	script := func(w *node.World, _ *sim.Engine) {
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
			w.SetLink(graph.NodeID(i), graph.NodeID((i+1)%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 150, MaxRescans: 3000}
			},
			MinLatency: 1, MaxLatency: 2,
			Faults:   plan,
			Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
			Auth:     node.AuthConfig{Enabled: true, Parole: 150},
			Audit: node.AuditConfig{
				Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40,
				Pull: true, PullInterval: 8, PullTTL: 2,
			},
			QueryAt: 25, Horizon: 3000,
		})
		if !res.Outcome.Terminated {
			b.Fatal("echo wave under collusion did not terminate")
		}
		if !res.Outcome.ValidModuloProven() {
			b.Fatalf("pull arm lost ValidModuloProven: %v", res.Outcome)
		}
	}
}

func BenchmarkE25ByzChurn(b *testing.B) {
	// Representative cell: the stretched echo wave on the chordal 16-ring
	// under the churn-laundering storm — entity 3 equivocates, is
	// convicted, then leaves and rejoins mid-query alongside two honest
	// churners — with durable identity continuity carrying every record
	// through the stable store. The delta against BenchmarkE24ColludePull
	// prices the identity save/restore path.
	plan, err := fault.Parse("equiv:nodes=3,peers=2+4,p=1@0-200;" +
		"rejoin:nodes=3,down=40@200;rejoin:nodes=6+12,down=40@200;seed=33")
	if err != nil {
		b.Fatal(err)
	}
	script := func(w *node.World, _ *sim.Engine) {
		const n = 16
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
			w.SetLink(graph.NodeID(i), graph.NodeID((i+1)%n+1), true)
		}
	}
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script:  script,
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 150, MaxRescans: 3000}
			},
			MinLatency: 1, MaxLatency: 2,
			Faults:   plan,
			Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
			Auth:     node.AuthConfig{Enabled: true},
			Audit: node.AuditConfig{
				Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40,
			},
			Identity:      node.IdentityConfig{Durable: true},
			BridgeRejoins: true,
			QueryAt:       25, Horizon: 1500,
		})
		if !res.Outcome.Terminated {
			b.Fatal("echo wave under churn laundering did not terminate")
		}
		if res.Identity.Restores != 3 {
			b.Fatalf("expected every churner's record restored, got %+v", res.Identity)
		}
		if res.Identity.QuarantinesLaundered != 0 {
			b.Fatalf("durable identity laundered: %+v", res.Identity)
		}
	}
}

func BenchmarkE28EngineScale(b *testing.B) {
	// Representative cell: a 2000-entity protocol-less world with live pex
	// membership, rejoining churn and count-only trace retention — the
	// whole-world path the E28 sweep scales to 100k.
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Churn: churn.Config{InitialPopulation: 2000, Immortal: true,
				ArrivalRate: 0.2, Session: churn.ExpSessions(40),
				RejoinProb: 0.3, Downtime: churn.FixedSessions(8)},
			Pex:        pex.Config{Enabled: true, SampleEvery: 120},
			LiteTrace:  true,
			MinLatency: 1, MaxLatency: 2,
			Horizon: 120,
		})
		if res.Messages.Sent == 0 {
			b.Fatal("no pex traffic in the scale world")
		}
	}
}

func BenchmarkE29JudgedScale(b *testing.B) {
	// The E28 world plus a query and a verdict: count-only retention with
	// the streaming OTQ checker riding the event stream, so the judged
	// run stores no trace. The delta over BenchmarkE28EngineScale is the
	// price of judgment itself.
	for i := 0; i < b.N; i++ {
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Script: func(w *node.World, e *sim.Engine) {
				e.At(1, func() { w.PexSeedViews(topology.BuildRing(2000)) })
			},
			Churn: churn.Config{InitialPopulation: 2000, Immortal: true,
				ArrivalRate: 0.2, Session: churn.ExpSessions(40),
				RejoinProb: 0.3, Downtime: churn.FixedSessions(8)},
			Protocol: func() otq.Protocol {
				return &otq.FloodTTL{TTL: 10, MaxLatency: 2}
			},
			Pex:         pex.Config{Enabled: true, SampleEvery: 120},
			LiteTrace:   true,
			StreamCheck: true,
			MinLatency:  1, MaxLatency: 2,
			QueryAt: 60,
			Horizon: 120,
		})
		if res.Outcome.StableCount == 0 {
			b.Fatal("the streaming checker judged nobody stable")
		}
	}
}

func BenchmarkE30TimedQuorum(b *testing.B) {
	// One representative E30 cell: the timed-quorum register over live
	// pex views under rejoining churn and 5% loss, judged by its
	// streaming regularity checker. The cost profile is dominated by the
	// walk traffic (sqrt(N) quorums, one walker per slot).
	for i := 0; i < b.N; i++ {
		cl := tq.NewClient(tq.Config{QuorumCoeff: 1.6, WalkTTL: 4,
			Walkers: 13, MaxLease: 64, Seed: uint64(i + 1)})
		sc := tq.NewStreamChecker()
		res := exp.Execute(exp.Scenario{
			Seed:    uint64(i + 1),
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Churn: churn.Config{InitialPopulation: 64, Immortal: true,
				ArrivalRate: 0.02 * 64, Session: churn.ExpSessions(40),
				RejoinProb: 0.3, Downtime: churn.FixedSessions(8)},
			MinLatency: 1, MaxLatency: 2,
			LossRate: 0.05,
			Pex:      pex.Config{Enabled: true, SampleEvery: 600},
			Factory:  cl.Factory(),
			Script: func(w *node.World, e *sim.Engine) {
				w.Trace.Stream(sc.Observe)
				e.At(1, func() { w.PexSeedViews(topology.BuildRing(64)) })
				e.At(120, func() {
					writer := w.Present()[0]
					cl.Bootstrap(w, 0)
					cl.Attach(w)
					val := 0.0
					e.Every(16, func() { val++; cl.Write(w, writer, val) })
					turn := 0
					e.Every(7, func() {
						present := w.Present()
						cl.Read(w, present[turn%len(present)])
						turn++
					})
				})
			},
			Horizon: 600,
		})
		rep := sc.Finish()
		if rep.Stale+rep.Fabricated > 0 {
			b.Fatalf("tq served silent violations: %+v", rep)
		}
		_ = res
	}
}

func BenchmarkE9Reach(b *testing.B) {
	// Build one churned trace, then measure reachability analysis.
	engine := sim.New()
	w := node.NewWorld(engine, topology.NewFragile(7), nil, node.Config{Seed: 7})
	gen := churn.New(7, churn.Config{
		InitialPopulation: 20, Immortal: true,
		ArrivalRate: 0.2, Session: churn.ExpSessions(50),
	})
	w.ApplyChurn(gen, 400)
	engine.RunUntil(400)
	w.Close()
	tg := w.Trace.Temporal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.ReachabilityFraction(0, 400)
	}
}
