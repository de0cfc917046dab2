package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/sim"
	"repro/internal/stats"
)

// E25 probes the audit stack's churn blind spot: under session-keyed
// identity, Leave/Join is a full pardon. A convicted equivocator departs,
// waits out its downtime, and rejoins with every per-pair counter,
// strike, budget and standing quarantine against it wiped — the
// conviction was keyed to the session, not the principal. Durable
// identity closes the laundry: the rejoiner's own record (send counters,
// anti-replay windows, quarantine ledger, broadcast-sequence cursor)
// rides the stable store across the gap, and peers keep their memory of
// the identity, so convictions stick and honest churners resume their
// sequence space without tripping a single false rejection. The residual
// attack — return under a FRESH identity — is priced by the sybil
// control arm: durable identity binds history to names, not bodies, and
// only admission control can tax new names.

// e25Byz is E25's ground-truth compromised identity: the equivocating
// sender on the chordal 16-ring that leaves and rejoins mid-query.
const e25Byz = graph.NodeID(3)

// e25Sybil is the fresh identity the sybil control arm returns under.
const e25Sybil = graph.NodeID(1003)

// e25LeaveAt and e25Down time the churn: the equivocator lies from the
// wave's start until its departure at 200 (by which point the victims'
// receipts have gossiped and the conviction has landed), stays down 40
// ticks, and returns mid-query at 240.
const (
	e25LeaveAt = 200
	e25Down    = 40
)

// e25Plan builds the churn-laundering storm: sender 3 lies with
// certainty to its two chord victims until its departure, then leaves
// and rejoins — optionally shedding its durable record first (the
// laundering attempt against durable identity) or returning under a
// fresh name (the sybil control). The honest churners 6 and 12 follow
// the identical leave/rejoin schedule.
func e25Plan(seed uint64, arm e25Arm) *fault.Plan {
	variant := ""
	if arm.reset {
		variant = ",reset=1"
	}
	if arm.sybil {
		variant = fmt.Sprintf(",sybil=%d", e25Sybil)
	}
	spec := fmt.Sprintf(
		"equiv:nodes=%d,peers=2+4,p=1@0-%d;"+
			"rejoin:nodes=%d,down=%d%s@%d;"+
			"rejoin:nodes=6+12,down=%d@%d;seed=%d",
		e25Byz, e25LeaveAt,
		e25Byz, e25Down, variant, e25LeaveAt,
		e25Down, e25LeaveAt, seed^0x25)
	return mustPlan(spec)
}

// e25Arm is one row of the E25 sweep.
type e25Arm struct {
	name    string
	durable bool
	reset   bool
	sybil   bool
}

// e25Arms: the session-keyed control (the laundering attack succeeds),
// the durable fix (convictions stick, honest churners ride free), the
// laundering attempt against the fix (shed the stored record — which
// self-defeats: peers kept their windows), and the fresh-identity
// control pricing what durability cannot reach.
var e25Arms = []e25Arm{
	{name: "session"},
	{name: "durable", durable: true},
	{name: "durable reset", durable: true, reset: true},
	{name: "sybil fresh-id", durable: true, sybil: true},
}

// e25Horizon is the cell run length: the wave launches at 25, the churn
// window is 200-240, and the echo wave's 150-tick quiescence window must
// reopen after the rejoin wave settles.
func e25Horizon(cfg Config) sim.Time {
	if cfg.Quick {
		return 700
	}
	return 1500
}

// e25Result carries everything one E25 cell measures.
type e25Result struct {
	out      otq.Outcome
	tr       *core.Trace
	msgs     core.MessageStats
	ident    node.IdentityCounters
	quars    []node.QuarantineEvent
	quarKept int // entities still quarantining the equivocator at horizon
	requars  int // re-convictions of the equivocator after its return
}

// e25Run executes one E25 cell: the echo wave on the chordal 16-ring,
// reliable + authenticated + audited, with the arm's identity keying and
// churn variant. Parole is off (the default), so any quarantine missing
// at the horizon was laundered, not paroled.
func e25Run(cfg Config, proto otq.Protocol, seed uint64, arm e25Arm) e25Result {
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: seed,
		Reliable: e21Reliable,
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
		Identity: node.IdentityConfig{Durable: arm.durable},
	}
	w, _, out := stormCell(ncfg, chordScript(16), e25Plan(seed, arm), proto, e25Horizon(cfg),
		otq.CheckOptions{BridgeRejoins: true}, nil)
	kept := 0
	for i := 1; i <= 16; i++ {
		if w.Quarantined(graph.NodeID(i), e25Byz) {
			kept++
		}
	}
	quars := w.QuarantineEvents()
	requars := 0
	for _, ev := range quars {
		if ev.Offender == e25Byz && ev.At > int64(e25LeaveAt+e25Down) {
			requars++
		}
	}
	return e25Result{
		out:      out,
		tr:       w.Trace,
		msgs:     w.Trace.Messages(""),
		ident:    w.IdentityTotals(),
		quars:    quars,
		quarKept: kept,
		requars:  requars,
	}
}

// E25 — Byzantine churn: identity laundering through Leave/Join. The
// session arm is the control: the attack costs one departure. The
// durable arm is the fix; the reset arm is the attack replayed against
// the fix; the sybil arm is the boundary of what identity continuity can
// promise.
func E25(cfg Config) *Report {
	tb := stats.NewTable("arm", "valid**", "laundered", "resets", "quar kept",
		"requar", "false quar", "save/restore", "msg amp")
	echo := func() otq.Protocol { return e24Wave() }
	baseline := make(map[uint64]float64)
	for _, arm := range e25Arms {
		var valid, laundered, resets, kept, requar, falseQ, saves, restores, amp stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			res := e25Run(cfg, echo(), seed, arm)
			valid.AddBool(res.out.ValidModuloProven())
			laundered.Add(float64(res.ident.QuarantinesLaundered + res.ident.ConvictionsLaundered))
			resets.Add(float64(res.ident.SessionResets))
			kept.Add(float64(res.quarKept))
			requar.Add(float64(res.requars))
			falseQ.Add(float64(len(e23FalseLinks(res.quars, map[graph.NodeID]bool{e25Byz: true}))))
			saves.Add(float64(res.ident.Saves))
			restores.Add(float64(res.ident.Restores))
			sent := float64(res.msgs.Sent)
			if arm.name == "session" {
				baseline[seed] = sent
			}
			if b := baseline[seed]; b > 0 {
				amp.Add(sent / b)
			}
		}
		tb.AddRow(arm.name, valid.Mean(), fmt.Sprintf("%.1f", laundered.Mean()),
			fmt.Sprintf("%.1f", resets.Mean()), fmt.Sprintf("%.1f", kept.Mean()),
			fmt.Sprintf("%.1f", requar.Mean()), falseQ.Mean(),
			fmt.Sprintf("%.0f/%.0f", saves.Mean(), restores.Mean()),
			fmt.Sprintf("%.2f", amp.Mean()))
	}
	return &Report{
		ID:    "E25",
		Title: "byzantine churn: session-keyed vs durable identity under rejoin laundering",
		Claim: "under session-keyed identity a convicted equivocator launders its quarantines by leaving and rejoining — every standing conviction against it is wiped with its session, and the network must pay a full round of re-convictions (a window of renewed exposure) to win them back from retained gossip evidence — while durable identity continuity carries the convictions across the gap with zero re-convictions needed, self-defeats the shed-my-record variant (peers keep their memory of the identity), charges honest churners on the same schedule zero false quarantines, and leaves open only the fresh-identity sybil return, which no identity-continuity mechanism can close",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("chordal 16-ring, query at t=25 from entity 1, horizon 1500; equivocator %d lies with p=1 to chord victims 2+4 until its departure at t=%d, down %d ticks; honest churners 6 and 12 ride the identical leave/rejoin schedule; audit: gossip every 4 ticks budget 32, hold window 40, parole off (quarantines are permanent, so a missing one was laundered)", e25Byz, e25LeaveAt, e25Down),
			"valid** = ValidModuloProven with rejoin-bridged stability (churners count as continuously present); laundered = standing quarantines + convictions wiped by the offender's own rejoin; resets = session-keyed identity resets; quar kept = entities still quarantining the equivocator at the horizon; requar = re-convictions of the equivocator AFTER its return (the laundering's bill: under session keying the network re-earns every conviction from retained gossip evidence; under durable identity none are needed); false quar = quarantined links whose offender is honest (must be 0 in every arm); save/restore = identity records through the stable store; msg amp = messages over the session arm, same seed",
		},
	}
}
