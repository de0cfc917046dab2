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

// E26 prices live protocol-stack reconfiguration: can a running network
// swap its retransmission policy, rotate its authentication keys, and
// tighten its audit retention mid-query — under loss, equivocation and
// churn — without dropping or double-delivering an in-flight message and
// without laundering a standing conviction? The static arms pin the two
// endpoint regimes (fixed vs adaptive RTO, frozen stacks); the flip arm
// switches regimes once, halfway, and its first half must be
// BIT-IDENTICAL to the static baseline — one seed yields both regimes'
// E21-style curves; the storm arm drives four epochs through the
// prepare/drain/commit handshake while the adversary lies and churns
// underneath it.

// e26Byz is the ground-truth compromised identity: the equivocating
// sender on the chordal 16-ring (lying to its chord victims 2 and 4).
const e26Byz = graph.NodeID(3)

// e26Honest are the honest churners riding the same rejoin schedule as
// the equivocator — the reconfiguring arms must charge them nothing.
var e26Honest = []graph.NodeID{6, 12}

// e26LeaveAt and e26Down time the churn window (200, 240): the
// equivocator lies from the wave's start until its departure, by which
// point the conviction has landed, and returns mid-storm.
const (
	e26LeaveAt = 200
	e26Down    = 40
)

// e26Storm shapes the reconfiguration storm: four rounds, 80 ticks
// apart, from t=120 — each rotating the MAC keys and ALTERNATING the
// audit retention cap between 64 and genesis, so rounds 2 and 4 cross a
// standing quarantine and the churn gap straddles round 2.
const (
	e26StormFrom   = 120
	e26StormEvery  = 80
	e26StormRounds = 4
	e26StormRetain = 64
)

// e26FlipAt is when the A/B arm switches regimes: halfway, long after
// the churn window closes, so the split is clean.
func e26FlipAt(horizon sim.Time) sim.Time { return horizon / 2 }

// e26Horizon matches E25's cell length: wave at 25, churn at 200-240,
// storm rounds at 120-360, flip at the midpoint.
func e26Horizon(cfg Config) sim.Time {
	if cfg.Quick {
		return 700
	}
	return 1500
}

// e26Arm is one row of the E26 sweep.
type e26Arm struct {
	name     string
	adaptive bool // genesis retransmission regime
	flip     bool // one mid-run round: fixed -> adaptive RTO
	storm    bool // four rotate+retention rounds under the adversary
	churn    bool // equivocator + honest churners leave and rejoin
}

// e26Arms: the two frozen endpoint regimes, the single mid-run regime
// flip (the A/B arm), and the full reconfiguration storm. All four ride
// the identical adversary and churn schedule.
var e26Arms = []e26Arm{
	{name: "static-fixed", churn: true},
	{name: "static-adaptive", adaptive: true, churn: true},
	{name: "flip-mid-run", flip: true, churn: true},
	{name: "reconfig-storm", storm: true, churn: true},
}

// e26Plan builds the arm's composed storm: certain equivocation to the
// chord victims until the departure, the shared rejoin schedule, and the
// arm's reconfiguration clause — a timed single round for the flip arm,
// a four-round storm for the storm arm. The initiator is the querier
// (entity 1), which never churns.
func e26Plan(seed uint64, arm e26Arm, horizon sim.Time) *fault.Plan {
	spec := fmt.Sprintf("equiv:nodes=%d,peers=2+4,p=1@0-%d", e26Byz, e26LeaveAt)
	if arm.churn {
		spec += fmt.Sprintf(";rejoin:nodes=%d+%d+%d,down=%d@%d",
			e26Byz, e26Honest[0], e26Honest[1], e26Down, e26LeaveAt)
	}
	if arm.flip {
		spec += fmt.Sprintf(";reconfig:nodes=1,adaptive=1@%d", e26FlipAt(horizon))
	}
	if arm.storm {
		spec += fmt.Sprintf(";reconfig:nodes=1,every=%d,count=%d,rotate=1,retain=%d@%d",
			e26StormEvery, e26StormRounds, e26StormRetain, e26StormFrom)
	}
	spec += fmt.Sprintf(";seed=%d", seed^0x26)
	return mustPlan(spec)
}

// e26Result carries everything one E26 cell measures.
type e26Result struct {
	out      otq.Outcome
	tr       *core.Trace
	msgs     core.MessageStats
	rel      node.ReliableCounters
	relHalf  node.ReliableCounters // snapshot one tick before the flip point
	auth     node.AuthCounters
	ident    node.IdentityCounters
	reconf   node.ReconfigCounters
	quarKept int // entities still quarantining the equivocator at horizon
}

// e26Run executes one E26 cell: the echo wave on the lossy chordal
// 16-ring, reliable + authenticated + audited + durable, with the arm's
// reconfiguration schedule. Every arm snapshots the retransmission
// counters one tick before the flip point, so the A/B split is measured
// at the same instant whether or not a flip happens.
func e26Run(cfg Config, proto otq.Protocol, seed uint64, arm e26Arm) e26Result {
	horizon := e26Horizon(cfg)
	rcfg := e21Reliable
	rcfg.Adaptive = arm.adaptive
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, LossRate: 0.02, Seed: seed,
		Reliable: rcfg,
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
		Identity: node.IdentityConfig{Durable: true},
		Reconfig: node.ReconfigConfig{Enabled: arm.flip || arm.storm},
	}
	var relHalf node.ReliableCounters
	w, _, out := stormCell(ncfg, chordScript(16), e26Plan(seed, arm, horizon), proto, horizon,
		otq.CheckOptions{BridgeRejoins: true}, func(w *node.World, engine *sim.Engine) {
			engine.RunUntil(e26FlipAt(horizon) - 1)
			relHalf = w.ReliableTotals()
		})
	kept := 0
	for i := 1; i <= 16; i++ {
		if w.Quarantined(graph.NodeID(i), e26Byz) {
			kept++
		}
	}
	return e26Result{
		out:      out,
		tr:       w.Trace,
		msgs:     w.Trace.Messages(""),
		rel:      w.ReliableTotals(),
		relHalf:  relHalf,
		auth:     w.AuthTotals(),
		ident:    w.IdentityTotals(),
		reconf:   w.ReconfigTotals(),
		quarKept: kept,
	}
}

// E26 — live reconfiguration: quiescence handshake under fault storms.
// The static arms bound what each frozen regime costs; the flip arm
// shows both regimes from one seed with a bit-identical first half; the
// storm arm shows four epochs committing under equivocation and churn
// with nothing dropped, nothing double-delivered, and every standing
// conviction intact through the key rotations and retention swings.
func E26(cfg Config) *Report {
	tb := stats.NewTable("arm", "valid**", "epochs", "retries pre/post",
		"giveups", "stale drops", "laundered", "quar kept", "msg amp")
	echo := func() otq.Protocol { return e24Wave() }
	baseline := make(map[uint64]float64)
	for _, arm := range e26Arms {
		var valid, epochs, preR, postR, giveups, stale, laundered, kept, amp stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			res := e26Run(cfg, echo(), seed, arm)
			valid.AddBool(res.out.ValidModuloProven())
			epochs.Add(float64(res.reconf.Committed))
			preR.Add(float64(res.relHalf.Retries))
			postR.Add(float64(res.rel.Retries - res.relHalf.Retries))
			giveups.Add(float64(res.rel.GiveUps))
			stale.Add(float64(res.reconf.StaleEpochDrops))
			laundered.Add(float64(res.ident.QuarantinesLaundered + res.ident.ConvictionsLaundered))
			kept.Add(float64(res.quarKept))
			sent := float64(res.msgs.Sent)
			if arm.name == "static-fixed" {
				baseline[seed] = sent
			}
			if b := baseline[seed]; b > 0 {
				amp.Add(sent / b)
			}
		}
		tb.AddRow(arm.name, valid.Mean(),
			fmt.Sprintf("%.1f", epochs.Mean()),
			fmt.Sprintf("%.0f/%.0f", preR.Mean(), postR.Mean()),
			fmt.Sprintf("%.1f", giveups.Mean()),
			fmt.Sprintf("%.1f", stale.Mean()),
			fmt.Sprintf("%.1f", laundered.Mean()),
			fmt.Sprintf("%.1f", kept.Mean()),
			fmt.Sprintf("%.2f", amp.Mean()))
	}
	return &Report{
		ID:    "E26",
		Title: "live reconfiguration: quiescence handshake under fault storms",
		Claim: "a quiescence handshake (prepare, drain in-flight retransmissions, epoch-fenced commit) reconfigures the running protocol stack — retransmission policy, MAC keys, audit retention — without dropping or double-delivering a single in-flight message and without laundering any standing quarantine through a key rotation or retention swing; the mid-run A/B arm's first half is bit-identical to the static baseline under the same seed, so one run exhibits both retransmission regimes' curves, and the four-round storm composed with equivocation and churn commits every epoch while the conviction against the equivocator rides through all of it",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("chordal 16-ring, loss 2%%, query at t=25 from entity 1, horizon %d; equivocator %d lies with p=1 to chord victims 2+4 until its departure at t=%d, down %d ticks alongside honest churners %d and %d; storm: %d rounds every %d ticks from t=%d, each rotating MAC keys and alternating audit retention %d<->genesis; flip: one round at the midpoint switching fixed->adaptive RTO; initiator is the querier (never churns)", e26Horizon(cfg), e26Byz, e26LeaveAt, e26Down, e26Honest[0], e26Honest[1], e26StormRounds, e26StormEvery, e26StormFrom, e26StormRetain),
			"valid** = ValidModuloProven with rejoin-bridged stability; epochs = stack epochs committed by the handshake; retries pre/post = retransmissions before vs after the flip point (the A/B split: flip-mid-run's pre column equals static-fixed's exactly under each seed, its post column shows the adaptive regime); giveups = messages abandoned after the retry budget — a departed receiver acks nothing (churn), and a quarantining receiver refuses the convicted equivocator's copies without acking, so post-conviction the liar burns its own retransmission budget on every handshake flood it relays (the reconfiguring arms' giveups are almost entirely the equivocator's); stale drops = messages fenced for arriving under an epoch older than the fence depth; laundered = standing quarantines or convictions wiped by rotation, retention swing, or rejoin (must be 0); quar kept = entities still quarantining the equivocator at the horizon; msg amp = messages over the static-fixed arm, same seed (handshake + retransmission overhead)",
		},
	}
}
