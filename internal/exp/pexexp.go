package exp

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// E27 measures the membership layer itself: a partial-view peer-exchange
// overlay under Byzantine view poisoning. Every entity holds a bounded
// view of signed member records and gossips it on a fixed cadence; the
// view IS the topology (links follow view contents). Three poisoners
// rewrite their outgoing exchanges with fabricated sybil records,
// resurrected records of the departed, and hop-zero replays of a chosen
// target. Undefended, the forgeries blend straight into honest views and
// stay there. The view-audit defense re-verifies every record signature,
// enforces hop and freshness sanity, and charges forged records to the
// SENDER's injection budget, handing repeat offenders to the existing
// auth quarantine machinery — so the acceptance bar is double-sided:
// poisoners convicted and their records extinct, while honest churners
// riding a leave/rejoin schedule through the attack window are charged
// nothing (stale records of the briefly-departed are rejected without a
// strike).

// e27Poisoners are the Byzantine members; they fit every sweep size.
var e27Poisoners = []graph.NodeID{4, 9, 13}

const (
	// e27SybilBase numbers the fabricated identities (never joined, so
	// the sampler classifies them as sybils at any sweep size).
	e27SybilBase = 1000
	// e27Target is the honest member the hub-bias replay inflates.
	e27Target = graph.NodeID(2)
	// e27AttackAt opens the poison window (views are ring-seeded at 0,
	// so the attack lands on a converging overlay, not a cold one).
	e27AttackAt = 24
	// e27ChurnAt / e27Down schedule the honest churners: down mid-attack,
	// back well before the horizon. While they are down their records go
	// stale in honest views — exactly the stock the defense must refuse
	// without striking the honest forwarders.
	e27ChurnAt = 100
	e27Down    = 30
)

// e27Churners picks the honest leave/rejoin pair (distinct from the
// poisoners and the hub-bias target at every sweep size).
var e27Churners = []graph.NodeID{20, 21}

// e27Arm is one row of the sweep.
type e27Arm struct {
	name   string
	poison bool
	defend bool
}

var e27Arms = []e27Arm{
	{name: "baseline"},
	{name: "poisoned", poison: true},
	{name: "defended", poison: true, defend: true},
}

// e27Plan builds the arm's fault schedule. Every arm rides the identical
// honest churn; only the poisoned arms add the attack clause.
func e27Plan(seed uint64, arm e27Arm) *fault.Plan {
	spec := ""
	if arm.poison {
		spec = fmt.Sprintf("poison:nodes=4+9+13,rate=1,sybils=3,base=%d,dead=1,target=%d@%d-;",
			e27SybilBase, e27Target, e27AttackAt)
	}
	spec += fmt.Sprintf("rejoin:nodes=%d+%d,down=%d@%d;seed=%d",
		e27Churners[0], e27Churners[1], e27Down, e27ChurnAt, seed^0x27)
	return mustPlan(spec)
}

func e27Horizon(cfg Config) sim.Time {
	return cfg.horizon(400)
}

// e27Result carries everything one E27 cell measures.
type e27Result struct {
	convergedAt int64
	// sybilViews / deadViews count honest members whose view still holds
	// a fabricated or resurrected record at the horizon.
	sybilViews, deadViews int
	present               int
	// isolatedHonest counts non-poisoner members outside the overlay's
	// main component at the horizon (the poisoners' own exile under the
	// defense is the quarantine working, not a connectivity failure).
	isolatedHonest int
	// poisonersQuar counts poisoners convicted by at least one peer;
	// falseQuar counts quarantine events whose offender is honest.
	poisonersQuar int
	falseQuar     int
	pex           node.PexCounters
	msgs          int
}

func e27IsPoisoner(id graph.NodeID) bool {
	for _, p := range e27Poisoners {
		if id == p {
			return true
		}
	}
	return false
}

// e27World runs one cell's world to its horizon: n members on a manual
// overlay, views seeded from the n-ring, the dead pool stocked by entity
// n's departure at tick 10, the arm's fault schedule attached for the
// whole run.
func e27World(cfg Config, seed uint64, n int, arm e27Arm) *node.World {
	engine := sim.New()
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: seed,
		Auth: node.AuthConfig{Enabled: true},
		Pex:  pex.Config{Enabled: true},
	}
	if arm.defend {
		ncfg.Pex.Audit = pex.ViewAuditConfig{Enabled: true, KeySeed: 0x27}
	}
	w := node.NewWorld(engine, topology.NewManual(), nil, ncfg)
	stop := e27Plan(seed, arm).Attach(w)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	w.PexSeedViews(topology.BuildRing(n))
	engine.At(10, func() { w.Leave(graph.NodeID(n)) })
	engine.RunUntil(e27Horizon(cfg))
	stop()
	w.Close()
	return w
}

// e27Run executes one cell and gathers what E27 measures from it.
func e27Run(cfg Config, seed uint64, n int, arm e27Arm) e27Result {
	w := e27World(cfg, seed, n, arm)
	res := e27Result{
		convergedAt: w.PexConvergedAt(),
		pex:         w.PexTotals(),
		msgs:        w.Trace.Messages("").Sent,
	}
	for _, id := range w.Present() {
		if e27IsPoisoner(id) {
			continue
		}
		res.present++
		sybil, dead := false, false
		for _, r := range w.PexView(id) {
			switch {
			case r.ID >= e27SybilBase:
				sybil = true
			case r.ID == graph.NodeID(n):
				dead = true
			}
		}
		if sybil {
			res.sybilViews++
		}
		if dead {
			res.deadViews++
		}
	}
	samples := w.PexSamples()
	if len(samples) > 0 {
		for _, id := range samples[len(samples)-1].OutsideMain {
			if !e27IsPoisoner(id) {
				res.isolatedHonest++
			}
		}
	}
	convicted := map[graph.NodeID]bool{}
	for _, ev := range w.QuarantineEvents() {
		if e27IsPoisoner(ev.Offender) {
			convicted[ev.Offender] = true
		} else {
			res.falseQuar++
		}
	}
	res.poisonersQuar = len(convicted)
	return res
}

// E27 — view poisoning: the membership overlay as the attack surface.
// The poisoned arm is the damage report; the defended arm must hit the
// double-sided acceptance bar (poisoned records extinct, poisoners
// convicted, zero honest members isolated, zero false quarantines).
func E27(cfg Config) *Report {
	tb := stats.NewTable("arm", "n", "converged@", "sybil views", "dead views",
		"isolated honest", "quar'd poisoners", "false quar", "rejects", "mean msgs")
	for _, n := range []int{64, 256} {
		n := cfg.scale(n)
		for _, arm := range e27Arms {
			var conv, sybil, dead, isolated, quarP, falseQ, rejects, msgs stats.Sample
			for s := 0; s < cfg.seeds(); s++ {
				res := e27Run(cfg, uint64(s+1), n, arm)
				conv.Add(float64(res.convergedAt))
				sybil.Add(float64(res.sybilViews) / float64(res.present))
				dead.Add(float64(res.deadViews) / float64(res.present))
				isolated.Add(float64(res.isolatedHonest))
				quarP.Add(float64(res.poisonersQuar))
				falseQ.Add(float64(res.falseQuar))
				rejects.Add(float64(res.pex.RejectedSig + res.pex.RejectedHop + res.pex.RejectedBad))
				msgs.Add(float64(res.msgs))
			}
			tb.AddRow(arm.name, n, fmt.Sprintf("%.0f", conv.Mean()),
				fmt.Sprintf("%.2f", sybil.Mean()), fmt.Sprintf("%.2f", dead.Mean()),
				fmt.Sprintf("%.1f", isolated.Mean()), fmt.Sprintf("%.1f/%d", quarP.Mean(), len(e27Poisoners)),
				falseQ.Mean(), fmt.Sprintf("%.0f", rejects.Mean()), fmt.Sprintf("%.0f", msgs.Mean()))
		}
	}
	return &Report{
		ID:    "E27",
		Title: "view poisoning: partial-view membership with and without the view audit",
		Claim: "a bounded partial-view peer-exchange overlay converges from sparse seeds and self-heals through churn, but three Byzantine members rewriting their outgoing exchanges push fabricated sybils and resurrected departed records into a large fraction of honest views — and the view-audit defense (per-record signatures, hop and freshness sanity, sender-charged injection budgets feeding the auth quarantine) drives the poisoned fraction to zero, convicts every poisoner, isolates no honest member, and charges honest leave/rejoin churners zero false quarantines; only the hop-zero replay of a genuinely-signed record survives, because hop age mutates legitimately in flight and is therefore outside the signature",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("n members on a manual overlay, views seeded from the n-ring, horizon %d; poisoners %v rewrite every outgoing exchange from t=%d with 3 sybils (base %d), 1 resurrected departed record (entity n leaves at t=10), and a hop-0 replay of member %d; honest churners %v leave at t=%d for %d ticks — through the attack window, so their stale records are live ammunition", e27Horizon(cfg), e27Poisoners, e27AttackAt, e27SybilBase, e27Target, e27Churners, e27ChurnAt, e27Down),
			"sybil/dead views = fraction of honest members whose view holds a fabricated / resurrected record at the horizon; isolated honest = non-poisoner members outside the overlay's main component at the horizon (defended poisoners quarantined out of the overlay do not count — their exile is the defense); quar'd poisoners = poisoners convicted by >=1 peer through the auth machinery; false quar = quarantine events naming an honest offender (must be 0 in every arm); rejects = records refused by the view audit (signature + hop + undecodable)",
		},
	}
}
