package exp

import (
	"repro/internal/churn"
	"repro/internal/node"
	"repro/internal/omega"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E19 — eventual leader election (Ω): heartbeat-diffusion leadership in
// runs that do and do not stabilize. In eventually-quiescent runs every
// member ends up trusting the same present entity (Ω's eventual
// agreement); under perpetual churn agreement stays high on average but
// the leader identity keeps being demoted as leaders leave — the
// perpetual instability that makes Ω "eventual" only per run class.
func E19(cfg Config) *Report {
	type cell struct {
		name    string
		rate    float64
		quiesce bool
	}
	cells := []cell{
		{"static", 0, true},
		{"churn 0.1, ev-stable", 0.1, true},
		{"churn 0.1, perpetual", 0.1, false},
		{"churn 0.3, ev-stable", 0.3, true},
		{"churn 0.3, perpetual", 0.3, false},
	}
	tb := stats.NewTable("run", "final agreement", "leader present", "demotions per member")
	for _, c := range cells {
		var agree, present, demo stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			el := &omega.Elector{Beat: 5, Timeout: 250}
			engine := sim.New()
			w := node.NewWorld(engine, ringOverlay(uint64(s+1)), el.Factory(), node.Config{
				MinLatency: 1, MaxLatency: 2, Seed: uint64(s + 1),
			})
			horizon := cfg.horizon(2400)
			// Only the static run keeps an immortal core: leader churn
			// requires that minimum-identity members can die.
			cc := churn.Config{InitialPopulation: cfg.scale(20), Immortal: c.rate == 0}
			if c.rate > 0 {
				cc.ArrivalRate = c.rate
				cc.Session = churn.ExpSessions(80)
				if c.quiesce {
					cc.QuiesceAt = int64(horizon * 2 / 3)
				}
			}
			w.ApplyChurn(churn.New(uint64(s+1)^0x99, cc), horizon)
			engine.RunUntil(horizon)
			leader, frac := omega.Agreement(w)
			agree.Add(frac)
			present.AddBool(w.Proc(leader) != nil)
			total, members := 0, 0
			for _, id := range w.Present() {
				if m, ok := node.FindBehavior[*omega.Member](w.Proc(id).Behavior()); ok {
					total += m.Demotions()
					members++
				}
			}
			if members > 0 {
				demo.Add(float64(total) / float64(members))
			}
		}
		tb.AddRow(c.name, agree.Mean(), present.Mean(), demo.Mean())
	}
	return &Report{
		ID:    "E19",
		Title: "eventual leader election under churn",
		Claim: "in eventually-stable runs all members converge on one PRESENT leader; under perpetual churn they still agree (~0.95+) but on a ghost — the departed minimum lingers inside the freshness horizon that diffusion itself forces to be wide",
		Table: tb,
		Notes: []string{
			"churn rows run without an immortal core: minimum-identity members keep dying",
			"the timeout trade is structural: heartbeats age one beat per hop, so the horizon must cover beat x diameter, and anything that wide keeps a departed leader trusted for that long — responsiveness and diffusion pull the one knob in opposite directions",
		},
	}
}
