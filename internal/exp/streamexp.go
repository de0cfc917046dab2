package exp

import (
	"fmt"
	"reflect"

	"repro/internal/churn"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E29 restores judgment at scale: full OTQ verdicts over live full worlds
// — pex membership gossip, Poisson churn with rejoins, a real query
// protocol — at populations where full-trace retention is the binding
// constraint. The OTQ judge (otq.StreamChecker) fed live consumes the
// event stream at Record time and keeps only open sessions and window
// participants, so it composes with count-only retention: the n=10k row
// is a judged run whose trace holds zero events. The n<=1k rows judge a
// fully retained trace BOTH ways — live, and by the post-hoc replay
// (otq.CheckWith) — and require the outcomes bit-identical.

// e29Cell is one sweep point.
type e29Cell struct {
	n       int
	horizon sim.Time
	queryAt sim.Time
	seeds   int
	// lite runs count-only retention + the live feed only; otherwise the
	// run keeps the full trace and is judged live and by replay.
	lite bool
}

func e29Cells(cfg Config) []e29Cell {
	seeds := cfg.seeds()
	if cfg.Quick {
		return []e29Cell{
			{n: 300, horizon: 96, queryAt: 48, seeds: min2(seeds, 2)},
			{n: 1000, horizon: 88, queryAt: 44, seeds: 1, lite: true},
		}
	}
	return []e29Cell{
		{n: 300, horizon: 120, queryAt: 60, seeds: min2(seeds, 3)},
		{n: 1000, horizon: 120, queryAt: 60, seeds: min2(seeds, 2)},
		{n: 10000, horizon: 96, queryAt: 48, seeds: 1, lite: true},
	}
}

// e29Scenario assembles the judged full-world run: E28's world shape
// (manual overlay, live pex with ring-seeded views, rejoining churn)
// plus a TTL-bounded flood query over the converged overlay.
func e29Scenario(seed uint64, c e29Cell, stream bool) Scenario {
	return Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Script: func(w *node.World, e *sim.Engine) {
			// The churn stream joins the initial population at t=0; seed
			// the ring right after, before the first exchange round fires.
			n := c.n
			e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
		},
		Churn: churn.Config{
			InitialPopulation: c.n,
			Immortal:          true,
			ArrivalRate:       float64(c.n) / 10000.0,
			Session:           churn.ExpSessions(float64(c.horizon) / 3),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		Protocol: func() otq.Protocol {
			return &otq.FloodTTL{TTL: 10, MaxLatency: 2}
		},
		MinLatency:  1,
		MaxLatency:  2,
		Pex:         pex.Config{Enabled: true, SampleEvery: c.horizon},
		LiteTrace:   c.lite,
		StreamCheck: stream,
		QueryAt:     c.queryAt,
		Horizon:     c.horizon,
	}
}

// e29Run executes one cell with the selected checker path.
func e29Run(seed uint64, c e29Cell, stream bool) RunResult {
	return Execute(e29Scenario(seed, c, stream))
}

// E29 — judged scale: streaming OTQ verdicts over live full worlds.
func E29(cfg Config) *Report {
	tb := stats.NewTable("n", "horizon", "retention", "checker", "events",
		"peak present", "term", "ticks", "stable", "covered frac", "miss reach", "=batch")
	for _, c := range e29Cells(cfg) {
		var events, peak, term, dur, stable, covered, missR stats.Sample
		agree := "n/a"
		for s := 0; s < c.seeds; s++ {
			seed := uint64(s + 1)
			res := e29Run(seed, c, true)
			if !c.lite {
				batch := e29Run(seed, c, false)
				if reflect.DeepEqual(res.Outcome, batch.Outcome) {
					if agree != "DIVERGED" {
						agree = "yes"
					}
				} else {
					agree = "DIVERGED"
				}
			}
			out := res.Outcome
			events.Add(float64(res.Trace.Len()))
			peak.Add(float64(res.Trace.MaxConcurrency()))
			if out.Terminated {
				term.Add(1)
				dur.Add(float64(out.Duration))
			} else {
				term.Add(0)
			}
			stable.Add(float64(out.StableCount))
			if out.StableCount > 0 {
				covered.Add(float64(out.CoveredStable) / float64(out.StableCount))
			}
			missR.Add(float64(len(out.MissedReachableStable)))
		}
		retention := "full"
		checker := "batch+stream"
		if c.lite {
			retention = "count-only"
			checker = "stream"
		}
		tb.AddRow(c.n, int64(c.horizon), retention, checker,
			fmt.Sprintf("%.0f", events.Mean()), fmt.Sprintf("%.0f", peak.Mean()),
			fmt.Sprintf("%.2f", term.Mean()), fmt.Sprintf("%.0f", dur.Mean()),
			fmt.Sprintf("%.0f", stable.Mean()), fmt.Sprintf("%.3f", covered.Mean()),
			fmt.Sprintf("%.1f", missR.Mean()), agree)
	}
	return &Report{
		ID:    "E29",
		Title: "judged scale: streaming OTQ verdicts over live full worlds",
		Claim: "the OTQ judge fed live from the event stream returns the verdicts its post-hoc replay over the retained trace returns — the n<=1k rows run both feeds on fully retained traces and require bit-identical outcomes — while keeping only open sessions and window participants, so fed live under count-only retention it judges a 10k-entity full world (live pex gossip, rejoining churn, TTL-flood query) whose trace retains zero events; before the live feed such worlds could run but not be judged, because full retention was the judge's admission price",
		Table: tb,
		Notes: []string{
			"world shape matches E28: manual overlay, ring-seeded pex views exchanging on the default cadence, initial population immortal, arrivals at rate n/10000 with ~horizon/3 sessions rejoining with p=0.3 after 8 ticks down",
			"the query is a TTL-10 flood over the pex overlay launched mid-run at the lowest-numbered entity; coverage below 1.0 reflects overlay distance and churned arrivals, not checker error — the verdict columns themselves are the measurement",
			"'=batch' reads: post-hoc replay equals live feed — the two feeds' full Outcome structs per seed; the count-only row reports n/a because a replay needs the events count-only retention discards — that impossibility is the experiment's point",
			"events counts RECORDED events (Trace.Len is exact under count-only retention even though the events are discarded)",
		},
	}
}
