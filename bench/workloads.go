package main

import (
	"fmt"
	"math"

	"repro/internal/churn"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tq"
)

// size pins a workload's worlds: population, horizon in virtual ticks, and
// for the two workloads that sum several independent worlds per
// execution, how many (stack-storm) or how many copies of the grid
// (judged-batch).
type size struct {
	n       int
	horizon sim.Time
	worlds  int
}

// cell is one world of a workload. Scenarios are single-use (protocols,
// register clients and checkers hold per-run state), so every execution
// builds its cells afresh.
type cell struct {
	sc exp.Scenario
	// noJudge runs the query but skips every checker — the ladders' base
	// rows, which exp.Execute has no way to run.
	noJudge bool
	// finish folds protocol-side statistics the RunResult does not carry
	// into st and checks the workload's invariants.
	finish func(res exp.RunResult, st *simStats) error
}

// ladderRow is one ablation step: the same seeded world with one more
// layer switched on. layer is the metric prefix its marginal cost is
// reported under ("" for the base row).
type ladderRow struct {
	name  string
	layer string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// full is the measured world; tiny is the bench_test.go smoke size.
	full, tiny size
	// rows is the ablation ladder, base first; rows[level] names what
	// build(…, level, …) constructs. top is the level that IS the workload.
	rows []ladderRow
	top  int
	// build makes the cells of one execution at a ladder level. p is nil
	// on untraced executions; traced ones route their own trace sinks
	// through it.
	build func(seed uint64, sz size, level int, p *probe) []cell
}

var workloads = []workload{
	{
		name: "pex-churn",
		why:  "n=4000 h=140 pex world under rejoining churn, count-only trace, no query: node/pexlayer, the pex codec and sim do nearly all the work; no checker and no security sublayer runs",
		full: size{4000, 140, 1}, tiny: size{120, 40, 1},
		rows: []ladderRow{{"pex-off", ""}, {"pex-on", "node.pexlayer"}},
		top:  1, build: buildPexChurn,
	},
	{
		name: "stack-storm",
		why:  "12 worlds of n=12 h=150, random-k(4) echo wave over reliable+auth+audit(pull)+identity+reconfig under a corrupt/replay/forge/reconfig storm, full traces kept, batch judge: the security stack, pex off",
		full: size{12, 150, 12}, tiny: size{8, 150, 1},
		rows: []ladderRow{{"bare", ""}, {"reliable", "node.reliable"}, {"auth", "node.auth"},
			{"audit", "node.audit"}, {"identity", "node.identity"}, {"reconfig", "node.reconfig"},
			{"faults", "fault"}},
		top: 6, build: buildStackStorm,
	},
	{
		name: "judged-batch",
		why:  "48 worlds of n=64 h=500: (ring, random-k(3), star) x (flood, repeated flood, echo wave, push-sum) x 4, full trace, batch checker + class inference: world set-up and the batch judges, idle channel",
		full: size{64, 500, 4}, tiny: size{12, 120, 1},
		rows: []ladderRow{{"count-only", ""}, {"retain", "core.retain"}, {"batch", "otq.batch"}},
		top:  2, build: buildJudgedBatch,
	},
	{
		name: "judged-stream",
		why:  "n=4000 h=300 random-k(4) repeated flood, count-only trace + streaming checker, no sublayers: the bare channel at scale, judged as it streams with nothing stored",
		full: size{4000, 300, 1}, tiny: size{60, 80, 1},
		rows: []ladderRow{{"count-only", ""}, {"stream", "otq.stream"}},
		top:  1, build: buildJudgedStream,
	},
	{
		name: "tq-register",
		why:  "n=1024 h=400 timed-quorum register (write every 4 ticks, rotating read every tick) over pex tail views under heavy churn, count-only trace + tq stream checker: tq walks and marks riding on pex",
		full: size{1024, 400, 1}, tiny: size{48, 200, 1},
		rows: []ladderRow{{"nop", ""}, {"tq", "tq"}},
		top:  1, build: buildTQRegister,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func manualOverlay(uint64) topology.Overlay { return topology.NewManual() }

func randomK(k int) func(uint64) topology.Overlay {
	return func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, k) }
}

// seedRing seeds every founder's view from the n-ring right after the
// churn stream's t=0 joins, so the first exchange round starts from a
// connected overlay instead of a bootstrap stampede (E28/E29's shape).
func seedRing(n int) func(*node.World, *sim.Engine) {
	return func(w *node.World, e *sim.Engine) {
		e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
	}
}

// buildPexChurn is E28's world through exp.Execute. Level 0 switches the
// membership layer off: the same churn stream over an edgeless overlay.
func buildPexChurn(seed uint64, sz size, level int, _ *probe) []cell {
	sc := exp.Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Churn: churn.Config{
			InitialPopulation: sz.n,
			Immortal:          true,
			ArrivalRate:       float64(sz.n) / 10000,
			Session:           churn.ExpSessions(float64(sz.horizon) / 3),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		MinLatency: 1, MaxLatency: 2,
		LiteTrace: true,
		Horizon:   sz.horizon,
	}
	if level >= 1 {
		sc.Pex = pex.Config{Enabled: true, SampleEvery: sz.horizon}
		sc.Script = seedRing(sz.n)
	}
	return []cell{{sc: sc}}
}

// stormPlan is E22's byz-storm (compromised senders 3 and 7, 7 framing 5)
// composed with E26's four-round key-rotation storm led by the querier,
// paced so that the last round commits well inside the horizon.
func stormPlan(seed uint64) *fault.Plan {
	pl, err := fault.Parse(fmt.Sprintf("corrupt:nodes=3+7,p=0.25;replay:nodes=3+7,p=0.3,window=12;"+
		"forge:nodes=7,as=5,p=0.6;reconfig:nodes=1,every=25,count=4,rotate=1@30;seed=%d", seed^0x57))
	if err != nil {
		panic("bench: storm plan: " + err.Error())
	}
	return pl
}

// buildStackStorm sums many small independent worlds per execution: a
// world under a Byzantine storm is chaotic and its size heavy-tailed — which
// link gets quarantined when moved one 48-entity world's per-event cost by
// a quarter from seed to seed, and four 24-entity worlds still moved
// allocations per event by 7%. Over twelve 12-entity worlds the per-event
// figures no longer follow the seed (allocations 2.3%, bytes 1.4%, time
// uncorrelated between two passes over the same 16 seeds).
func buildStackStorm(seed uint64, sz size, level int, _ *probe) []cell {
	// Every world's result, trace and all, stays alive until the last one
	// is judged: what the execution holds at its peak is then the sum of its
	// worlds, which steadies from seed to seed as worlds are added, and not
	// the largest of them, which does not (peak RSS 65-104 MiB over ten
	// seeds of four worlds while their event total moved 8%). It is also
	// what the one large world this workload stands for would hold.
	var kept []exp.RunResult
	cells := make([]cell, sz.worlds)
	for i := range cells {
		worldSeed := seed + uint64(i)*7919
		sc := exp.Scenario{
			Seed:    worldSeed,
			Overlay: randomK(4),
			Churn: churn.Config{
				InitialPopulation: sz.n,
				Immortal:          true,
				ArrivalRate:       0.2,
				Session:           churn.ExpSessions(80),
			},
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 5000}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 25,
			Horizon: sz.horizon,
		}
		sc.Reliable.Enabled = level >= 1
		sc.Auth.Enabled = level >= 2
		sc.Audit = node.AuditConfig{Enabled: level >= 3, Pull: level >= 3}
		sc.Identity.Durable = level >= 4
		sc.Reconfig.Enabled = level >= 5
		if level >= 6 {
			sc.Faults = stormPlan(worldSeed)
		}
		cells[i] = cell{sc: sc, finish: func(res exp.RunResult, _ *simStats) error {
			kept = append(kept, res)
			if rc := res.Reconfig; level >= 6 && (rc.Initiated == 0 || rc.Committed != rc.Initiated) {
				return fmt.Errorf("reconfig storm committed %d of %d epochs", rc.Committed, rc.Initiated)
			}
			return nil
		}}
	}
	return cells
}

// buildJudgedBatch is the E1-E20 / `otqbench -quick` regime: many small
// judged worlds, cell seed = seed + index; the grid is repeated because 48
// small worlds read steadier from seed to seed than 12 larger ones. Level
// 0 keeps no events and level 1 keeps them all, both unjudged; level 2 is
// the workload.
func buildJudgedBatch(seed uint64, sz size, level int, _ *probe) []cell {
	overlays := []func(uint64) topology.Overlay{
		func(s uint64) topology.Overlay { return topology.NewRing(s) },
		randomK(3),
		func(uint64) topology.Overlay { return topology.NewStar() },
	}
	protocols := []func() otq.Protocol{
		func() otq.Protocol { return &otq.FloodTTL{TTL: 8, MaxLatency: 2} },
		func() otq.Protocol {
			return &otq.RepeatedFlood{TTL: 8, MaxLatency: 2, MaxRounds: 10, QuietRounds: 2}
		},
		func() otq.Protocol {
			return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 5000}
		},
		func() otq.Protocol { return &otq.GossipPushSum{RoundInterval: 2, Rounds: 100, Seed: 11} },
	}
	var cells []cell
	for len(cells) < sz.worlds*len(overlays)*len(protocols) {
		for _, overlay := range overlays {
			for _, proto := range protocols {
				cells = append(cells, cell{noJudge: level < 2, sc: exp.Scenario{
					Seed:    seed + uint64(len(cells)),
					Overlay: overlay,
					Churn: churn.Config{
						InitialPopulation: sz.n,
						Immortal:          true,
						ArrivalRate:       float64(sz.n) / 2000,
						Session:           churn.ExpSessions(80),
					},
					Protocol:   proto,
					MinLatency: 1, MaxLatency: 2,
					LiteTrace: level == 0,
					QueryAt:   sz.horizon / 4,
					Horizon:   sz.horizon,
				}})
			}
		}
	}
	return cells
}

func buildJudgedStream(seed uint64, sz size, level int, _ *probe) []cell {
	return []cell{{
		sc: exp.Scenario{
			Seed:    seed,
			Overlay: randomK(4),
			Churn: churn.Config{
				InitialPopulation: sz.n,
				Immortal:          true,
				ArrivalRate:       float64(sz.n) / 2000,
				Session:           churn.ExpSessions(80),
			},
			Protocol: func() otq.Protocol {
				return &otq.RepeatedFlood{TTL: 12, MaxLatency: 2, MaxRounds: 4, QuietRounds: 2}
			},
			MinLatency: 1, MaxLatency: 2,
			LiteTrace:   true,
			StreamCheck: true,
			QueryAt:     sz.horizon / 4,
			Horizon:     sz.horizon,
		},
		noJudge: level == 0,
	}}
}

// buildTQRegister is ddsim's `-pex -tq -lite-trace` script — one immortal
// writer, reads rotating over the present members, from t=horizon/5 — at
// four to seven times its operation rate (write every 4 ticks, read every
// tick), so the register is half of the events and not a tenth. Level 0
// keeps the pex world but runs Nop members and issues no operations.
func buildTQRegister(seed uint64, sz size, level int, p *probe) []cell {
	sc := exp.Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Churn: churn.Config{
			InitialPopulation: sz.n,
			Immortal:          true,
			ArrivalRate:       float64(sz.n) / 50,
			Session:           churn.ExpSessions(40),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		MinLatency: 1, MaxLatency: 2,
		Pex:       pex.Config{Enabled: true, ViewSize: 8, Policy: pex.PolicyTail, SampleEvery: sz.horizon},
		LiteTrace: true,
		Horizon:   sz.horizon,
	}
	if level == 0 {
		sc.Script = seedRing(sz.n)
		return []cell{{sc: sc}}
	}
	q := int(math.Ceil(1.6 * math.Sqrt(float64(sz.n))))
	cl := tq.NewClient(tq.Config{QuorumCoeff: 1.6, WalkTTL: 4, Walkers: q, MaxLease: 64, Seed: seed})
	checker := tq.NewStreamChecker()
	ops := 0
	sc.Factory = cl.Factory()
	sc.Script = func(w *node.World, e *sim.Engine) {
		w.Trace.Stream(p.sink(checker.Observe))
		seedRing(sz.n)(w, e)
		e.At(sz.horizon/5, func() {
			writer := w.Present()[0] // immortal founding member
			cl.Bootstrap(w, 0)
			cl.Attach(w)
			val := 0.0
			e.Every(4, func() {
				val++
				ops++
				cl.Write(w, writer, val)
			})
			turn := 0
			e.Every(1, func() {
				present := w.Present()
				ops++
				cl.Read(w, present[turn%len(present)])
				turn++
			})
		})
	}
	finish := func(res exp.RunResult, st *simStats) error {
		st.TQ = checker.Finish()
		st.TQCounters = cl.Counters()
		st.TQOps = ops
		st.TQMsgs = res.Trace.Messages(tq.TagProbe).Sent + res.Trace.Messages(tq.TagResp).Sent
		if !st.TQ.OK() {
			return fmt.Errorf("tq served %d stale and %d fabricated reads", st.TQ.Stale, st.TQ.Fabricated)
		}
		return nil
	}
	return []cell{{sc: sc, finish: finish}}
}
