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

// E24 probes the audit sublayer's geography blind spot: colluding
// equivocators that PARTITION their victim sets. Every victim in one
// partition receives the identical lie, so receipts inside a partition
// never conflict; the colluder silences its traffic toward everyone
// else, so no honest witness holds anything to compare. Conflicting
// receipts then live at entities that are never both endpoints of one
// 1-hop receipt push — gossiped-in receipts are not re-gossiped — and
// push-only auditing convicts nothing. Receipt pull anti-entropy closes
// the gap: periodic digests of the WHOLE store (gossiped-in receipts
// included) walk a bounded-TTL path through rotating neighbor subsets,
// and any store holding a divergent fingerprint answers with the
// receipt that completes the conviction.

// e24Colluders is E24's ground-truth compromised set: the storm's three
// colluding senders on the chordal 16-ring.
var e24Colluders = map[graph.NodeID]bool{3: true, 7: true, 11: true}

// e24Chaff, e24ChaffFrom and e24ChaffEvery parameterize the bseq-cycling
// eviction attack of the Retain-sweep arms: every colluder floods each
// victim with one fresh honest broadcast per tick for 300 ticks,
// starting at t=72 — just after the storm's first contested receipts
// have been recorded and gossiped (wave launch 25, hold 40, lie delivery
// ~68, receipt push ~72), which is the ROADMAP attack's aim: evict the
// receipts a pending conviction needs.
const (
	e24Chaff      = 300
	e24ChaffFrom  = 72
	e24ChaffEvery = 1
)

// e24PullInterval and e24PullBudget are the pull anti-entropy period and
// per-digest entry budget every pull arm uses; variables so the sweep
// tests can price detection latency against them.
var (
	e24PullInterval = 8
	e24PullBudget   = 64
)

// e24Plan builds the colluding storm: senders 3, 7 and 11 each lie to
// the two chord neighbors on opposite sides (1+5, 5+9, 9+13), one
// victim per partition, with certainty. The victims of one sender are
// NOT adjacent, and the sender goes silent toward its other neighbors —
// under 1-hop push the conflicting receipts provably never meet. With
// droppull the colluders additionally refuse to originate, relay or
// answer pull digests — the uncooperative-relay escalation: every
// colluder sits on the 2-hop walk between its own victims, so the
// digests must find the paths around it.
func e24Plan(seed uint64, chaff, droppull bool) *fault.Plan {
	extra := ""
	if chaff {
		extra = fmt.Sprintf(",chaff=%d,chafffrom=%d,chaffevery=%d",
			e24Chaff, e24ChaffFrom, e24ChaffEvery)
	}
	if droppull {
		extra += ",droppull=1"
	}
	spec := fmt.Sprintf(
		"collude:nodes=3,peers=1+5,groups=2,p=1%[1]s;"+
			"collude:nodes=7,peers=5+9,groups=2,p=1%[1]s;"+
			"collude:nodes=11,peers=9+13,groups=2,p=1%[1]s;seed=%d",
		extra, seed^0x24)
	return mustPlan(spec)
}

// e24Arm is one row of the E24 sweep.
type e24Arm struct {
	name      string
	pull      bool
	ttl       int
	retention string
	retain    int
	chaff     bool
	droppull  bool
}

// e24Arms: the push/pull contrast on the default store, then the
// Retain sweep under the bseq-cycling chaff flood contrasting FIFO
// eviction (the seed behavior) with conviction-aware pinned retention.
var e24Arms = []e24Arm{
	{name: "push-only"},
	{name: "pull ttl=1", pull: true, ttl: 1},
	{name: "pull ttl=2", pull: true, ttl: 2},
	{name: "droppull ttl=2", pull: true, ttl: 2, droppull: true},
	{name: "chaff fifo r=12", pull: true, ttl: 2, retention: node.RetentionFIFO, retain: 12, chaff: true},
	{name: "chaff pinned r=12", pull: true, ttl: 2, retention: node.RetentionPinned, retain: 12, chaff: true},
}

// e24AuditConfig is one arm's audit sublayer configuration. Receipts
// push every 4 ticks and digests pull every 8; the hold window must
// cover the pull round trip (digest out, response back, proof forward),
// which is longer than E23's push-only evidence path — geography's
// price, paid as uniform extra latency. The protocol's quiescence
// window must in turn exceed the hold round trip (see E24's wave).
func e24AuditConfig(arm e24Arm) node.AuditConfig {
	cfg := node.AuditConfig{
		Enabled:        true,
		GossipInterval: 4,
		GossipBudget:   32,
		HoldFor:        40,
		Pull:           arm.pull,
		PullInterval:   sim.Time(e24PullInterval),
		PullBudget:     e24PullBudget,
		PullTTL:        arm.ttl,
		Retention:      arm.retention,
		Retain:         arm.retain,
	}
	if !arm.pull {
		cfg.PullTTL = 1 // irrelevant when pull is off; keep the config valid
	}
	return cfg
}

// e24Wave is E24's protocol: the E23 echo wave with a quiescence window
// stretched past the audit hold round trip. Held deliveries arrive in
// ~42-tick bursts per hop (hold 40 + latency), so a 60-tick quiet window
// would answer before the first held response lands; 150 rides out the
// longest inter-burst gap with margin.
func e24Wave() *otq.EchoWave {
	return &otq.EchoWave{RescanInterval: 3, QuietFor: 150, MaxRescans: 3000}
}

// e24Horizon is the cell run length: 3000 ticks as recorded, but a
// harder-than-usual quick cut (700, past the chaff flood's end at ~372
// and the wave's answer) because the push-only control arm never
// terminates — its cost is linear in the horizon, and under the race
// detector the default cut makes the suite's CI budget blow up.
func e24Horizon(cfg Config) sim.Time {
	if cfg.Quick {
		return 700
	}
	return 3000
}

// e24Run executes one E24 cell: the echo wave on the chordal 16-ring
// under the colluding storm, reliable + authenticated + audited, with
// the arm's pull and retention settings.
func e24Run(cfg Config, proto otq.Protocol, seed uint64, arm e24Arm) e23Result {
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: seed,
		Reliable: e21Reliable,
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    e24AuditConfig(arm),
	}
	return e23Gather(stormCell(ncfg, chordScript(16), e24Plan(seed, arm.chaff, arm.droppull), proto,
		e24Horizon(cfg), otq.CheckOptions{}, nil))
}

// E24 — colluding equivocators versus receipt pull anti-entropy. The
// push-only arm is the control: the collusion is CORRECT against 1-hop
// receipt gossip, so its proven fraction is the blind spot's size. The
// pull arms convict through digest walks; the TTL sweep prices the walk
// depth. The chaff arms replay ROADMAP's eviction attack — cycle enough
// fresh broadcast numbers and a FIFO store evicts the contested receipt
// before a digest ever advertises it — against the conviction-aware
// retention policy that pins known-divergent evidence and never evicts
// a receipt a digest has not yet advertised.
func E24(cfg Config) *Report {
	tb := stats.NewTable("arm", "audit valid**", "proven frac", "convict t",
		"pull msgs", "evict", "pins", "false quar", "msg amp")
	echo := func() otq.Protocol { return e24Wave() }
	baseline := make(map[uint64]float64)
	for _, arm := range e24Arms {
		var valid, proven, convict, pulls, evict, pins, falseQ, amp stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			res := e24Run(cfg, echo(), seed, arm)
			valid.AddBool(res.out.ValidModuloProven())
			if f, ok := e23ProvenFrac(res.summary); ok {
				proven.Add(f)
			}
			if at, ok := res.tr.FirstMark(core.MarkProvenEquivocator); ok {
				convict.Add(float64(at))
			}
			pulls.Add(float64(res.audit.PullsSent + res.audit.PullsRelayed + res.audit.PullReplies))
			evict.Add(float64(res.audit.Evicted))
			pins.Add(float64(res.audit.Pinned))
			falseQ.Add(float64(len(e23FalseLinks(res.quars, e24Colluders))))
			sent := float64(res.msgs.Sent)
			if arm.name == "push-only" {
				baseline[seed] = sent
			}
			if b := baseline[seed]; b > 0 {
				amp.Add(sent / b)
			}
		}
		convictCell := "-"
		if convict.N() > 0 {
			convictCell = fmt.Sprintf("%.1f", convict.Mean())
		}
		tb.AddRow(arm.name, valid.Mean(), fmt.Sprintf("%.2f", proven.Mean()),
			convictCell, fmt.Sprintf("%.0f", pulls.Mean()),
			fmt.Sprintf("%.0f", evict.Mean()), fmt.Sprintf("%.0f", pins.Mean()),
			falseQ.Mean(), fmt.Sprintf("%.2f", amp.Mean()))
	}
	return &Report{
		ID:    "E24",
		Title: "colluding equivocators: 1-hop receipt push vs pull anti-entropy",
		Claim: "equivocators that partition their victim sets and silence honest witnesses defeat 1-hop receipt gossip outright — no two conflicting receipts ever share an entity — while bounded-TTL pull digests over the whole store (gossiped-in receipts included) reunite the evidence and convict; and when the adversary cycles fresh broadcast numbers to evict the contested receipt from a bounded store, conviction-aware retention (pin known-divergent keys, advertise before evicting) keeps the conviction where FIFO loses it",
		Table: tb,
		Notes: []string{
			fmt.Sprintf("chordal 16-ring, query at t=25 from entity 1, horizon 3000; colluders 3, 7, 11 each lie with p=1 to the two chord neighbors on opposite sides (1+5, 5+9, 9+13), one victim per partition, identical lie within a partition, silent toward everyone else (acks excepted); audit on every arm: gossip every 4 ticks budget 32, hold window 40, pull every 8 ticks fanout 2 where enabled; the droppull arm's colluders additionally refuse to originate, relay or answer pull digests (each colluder sits on the 2-hop walk between its own victims), so conviction must route around them; chaff arms flood each victim with %d fresh honest broadcasts (1/tick) into a Retain-12 store", e24Chaff),
			"valid** = ValidModuloProven; proven frac = equivocated broadcasts (divergent copies actually delivered) some entity proved; convict t = first conviction (absolute tick; query at 25, lies start once the wave reaches a colluder); pull msgs = pull requests originated + relayed + responses; evict/pins = store evictions and known-divergent pins across all entities; false quar = falsely quarantined links (framing — must be 0: convictions re-verify both signatures); msg amp = messages over the push-only arm, same seed",
		},
	}
}
