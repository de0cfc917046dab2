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

// AuditLevels are the canned adversary levels E23 sweeps.
var AuditLevels = []string{"equiv", "equiv+forge", "equiv-storm"}

// e23Parole is the parole interval of E23's audit arm: long enough that a
// reinstated link is meaningful, short against the 3000-tick horizon so a
// framed scapegoat's recovery lands well inside the run.
const e23Parole = 150

// e23Plan builds the level's fault plan. Entity 3 (and in the storm 7 and
// 11) equivocates with certainty toward its two ring successors/
// predecessors that the chordal ring makes mutually adjacent, so the lies
// are catchable in principle; the forge level adds E22's framing attack —
// 7 signing as the innocent 5 — but only during [0, 300), so a paroled
// scapegoat stays clean afterwards and its recovery time is measurable.
func e23Plan(level string, seed uint64) *fault.Plan {
	var spec string
	switch level {
	case "none":
		return nil
	case "equiv":
		spec = "equiv:nodes=3,peers=2+4,p=1"
	case "equiv+forge":
		spec = "equiv:nodes=3,peers=2+4,p=1;forge:nodes=7,as=5,p=0.6@0-300"
	case "equiv-storm":
		spec = "equiv:nodes=3,peers=2+4,p=1;equiv:nodes=7,peers=6+8,p=1;" +
			"equiv:nodes=11,peers=10+12,p=1"
	default:
		panic("exp: unknown E23 audit level " + level)
	}
	return mustPlan(fmt.Sprintf("%s;seed=%d", spec, seed^0x23))
}

// e23Offenders is the ground-truth compromised set per level — what a
// quarantine SHOULD blame. Anything quarantined outside it is a false
// quarantine (under forgery, the framed scapegoat 5).
func e23Offenders(level string) map[graph.NodeID]bool {
	switch level {
	case "equiv":
		return map[graph.NodeID]bool{3: true}
	case "equiv+forge":
		return map[graph.NodeID]bool{3: true, 7: true}
	case "equiv-storm":
		return map[graph.NodeID]bool{3: true, 7: true, 11: true}
	}
	return nil
}

// chordScript populates a Manual overlay with a chordal n-ring: every
// entity links to its ring neighbors AND to the entities two steps away.
// The chords are what makes equivocation detectable at all — on the plain
// cycle an equivocator's two victims share no honest neighbor, so their
// conflicting receipts can never meet one hop away. Here any two
// neighbors of a sender sit within one hop of each other.
func chordScript(n int) func(*node.World, *sim.Engine) {
	return func(w *node.World, _ *sim.Engine) {
		for i := 1; i <= n; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= n; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%n+1), true)
			w.SetLink(graph.NodeID(i), graph.NodeID((i+1)%n+1), true)
		}
	}
}

// e23Result carries everything one E23 cell measures.
type e23Result struct {
	out     otq.Outcome
	run     *otq.Run
	tr      *core.Trace
	msgs    core.MessageStats
	audit   node.AuditCounters
	summary node.AuditSummary
	quars   []node.QuarantineEvent
	paroles []node.QuarantineEvent
}

// e23Run executes one E23 cell: the echo wave on a chordal 16-ring under
// the level's plan. Both arms run over reliable, authenticated channels;
// the audit arm stacks the audit sublayer and gives the quarantine a
// parole interval. The generous gossip budget keeps the receipt queues
// drained faster than the wave fills them, so proofs beat the hold
// window's release — the property the experiment is measuring the price
// of.
func e23Run(cfg Config, proto otq.Protocol, level string, seed uint64, audit bool) e23Result {
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: seed,
		Reliable: e21Reliable,
		Auth:     node.AuthConfig{Enabled: true},
	}
	if audit {
		ncfg.Auth.Parole = e23Parole
		ncfg.Audit = node.AuditConfig{Enabled: true, GossipBudget: 32}
	}
	return e23Gather(stormCell(ncfg, chordScript(16), e23Plan(level, seed), proto, cfg.horizon(3000), otq.CheckOptions{}, nil))
}

// e23Gather gathers what E23 and E24 measure from a finished cell.
func e23Gather(w *node.World, r *otq.Run, out otq.Outcome) e23Result {
	return e23Result{
		out:     out,
		run:     r,
		tr:      w.Trace,
		msgs:    w.Trace.Messages(""),
		audit:   w.AuditTotals(),
		summary: w.AuditSummary(),
		quars:   w.QuarantineEvents(),
		paroles: w.ParoleEvents(),
	}
}

// e23ProvenFrac is the fraction of ground-truth equivocated broadcasts
// (divergent copies actually delivered) that some entity proved. ok is
// false when nothing equivocated.
func e23ProvenFrac(s node.AuditSummary) (float64, bool) {
	if s.EquivocatedBroadcasts == 0 {
		return 0, false
	}
	return float64(s.ProvenBroadcasts) / float64(s.EquivocatedBroadcasts), true
}

// e23ProofFrac is the mean, over proven offenders, of the fraction of the
// other 15 entities that ever held proof against the offender — how far
// the receipt pairs propagated. ok is false when nothing was proven.
func e23ProofFrac(s node.AuditSummary, n int) (float64, bool) {
	if len(s.ProvenOffenders) == 0 {
		return 0, false
	}
	total := 0.0
	for _, off := range s.ProvenOffenders {
		total += float64(s.Holders[off]) / float64(n-1)
	}
	return total / float64(len(s.ProvenOffenders)), true
}

// e23FalseLinks collects the falsely quarantined links — quarantine
// events whose offender is outside the level's compromised set — keyed by
// (by, offender), with the first quarantine time of each.
func e23FalseLinks(quars []node.QuarantineEvent, offenders map[graph.NodeID]bool) map[[2]graph.NodeID]int64 {
	links := map[[2]graph.NodeID]int64{}
	for _, ev := range quars {
		if offenders[ev.Offender] {
			continue
		}
		key := [2]graph.NodeID{ev.By, ev.Offender}
		if _, ok := links[key]; !ok {
			links[key] = ev.At
		}
	}
	return links
}

// e23Recovery judges the falsely quarantined links' fate: recovered means
// every such link was eventually paroled and never re-quarantined
// afterwards, and t is the worst time-to-clear (last parole minus first
// quarantine) among them. none reports there was nothing to recover from.
func e23Recovery(quars, paroles []node.QuarantineEvent, offenders map[graph.NodeID]bool) (t float64, recovered, none bool) {
	links := e23FalseLinks(quars, offenders)
	if len(links) == 0 {
		return 0, false, true
	}
	lastQuar := map[[2]graph.NodeID]int64{}
	for _, ev := range quars {
		lastQuar[[2]graph.NodeID{ev.By, ev.Offender}] = ev.At
	}
	worst := 0.0
	for key, first := range links {
		cleared := false
		var clearAt int64
		for _, ev := range paroles {
			if ev.By == key[0] && ev.Offender == key[1] && ev.At >= lastQuar[key] {
				cleared, clearAt = true, ev.At
			}
		}
		if !cleared {
			return 0, false, false
		}
		if d := float64(clearAt - first); d > worst {
			worst = d
		}
	}
	return worst, true, false
}

// e23Cell formats one aggregate cell: '-' when no run contributed, -1
// when some run's value was infinite (an unrecovered quarantine), the
// mean otherwise.
func e23Cell(s *stats.Sample, infinite bool) string {
	if infinite {
		return "-1"
	}
	if s.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", s.Mean())
}

// E23 — the answer to E22's designed blind spot: equivocation. The audit
// sublayer makes senders sign each broadcast copy under a broadcast
// sequence number; receivers gossip compact receipts to their neighbors,
// and two valid signatures on divergent payloads of one broadcast convict
// the sender — transferable proof that propagates transitively and cannot
// frame an honest entity (conviction requires the entity's OWN key on
// both receipts). The quarantine gains a parole interval, so E22's other
// standing cost — the permanently framed scapegoat — becomes a transient:
// the forged-at link recovers with a halved misbehavior budget once the
// forger moves on. The experiment prices all of it: proven fraction,
// detection latency, proof propagation, recovery time, and the receipt
// traffic the evidence exchange costs.
func E23(cfg Config) *Report {
	tb := stats.NewTable("byzantine", "auth valid*", "audit valid**", "proven frac",
		"detect t", "proof frac", "false quar", "recov auth", "recov audit", "rcpt amp")
	echo := func() otq.Protocol {
		return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
	}
	for _, level := range AuditLevels {
		offenders := e23Offenders(level)
		var authValid, auditValid, proven, detect, proof, falseQ, amp stats.Sample
		var recovAuth, recovAudit stats.Sample
		authInf, auditInf := false, false
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			ar := e23Run(cfg, echo(), level, seed, false)
			authValid.AddBool(ar.out.ValidModuloQuarantine())
			if t, rec, none := e23Recovery(ar.quars, ar.paroles, offenders); !none {
				if rec {
					recovAuth.Add(t)
				} else {
					authInf = true
				}
			}
			dr := e23Run(cfg, echo(), level, seed, true)
			auditValid.AddBool(dr.out.ValidModuloProven())
			if f, ok := e23ProvenFrac(dr.summary); ok {
				proven.Add(f)
			}
			if at, ok := dr.tr.FirstMark(core.MarkProvenEquivocator); ok {
				detect.Add(float64(at))
			}
			if f, ok := e23ProofFrac(dr.summary, 16); ok {
				proof.Add(f)
			}
			falseQ.Add(float64(len(e23FalseLinks(dr.quars, offenders))))
			if t, rec, none := e23Recovery(dr.quars, dr.paroles, offenders); !none {
				if rec {
					recovAudit.Add(t)
				} else {
					auditInf = true
				}
			}
			if ar.msgs.Sent > 0 {
				amp.Add(float64(dr.msgs.Sent) / float64(ar.msgs.Sent))
			}
		}
		tb.AddRow(level, authValid.Mean(), auditValid.Mean(),
			fmt.Sprintf("%.2f", proven.Mean()), fmt.Sprintf("%.1f", detect.Mean()),
			fmt.Sprintf("%.2f", proof.Mean()), falseQ.Mean(),
			e23Cell(&recovAuth, authInf), e23Cell(&recovAudit, auditInf),
			fmt.Sprintf("%.2f", amp.Mean()))
	}
	return &Report{
		ID:    "E23",
		Title: "equivocation storms: auth alone vs auth + audit with parole",
		Claim: "per-pair authentication cannot see a sender that signs divergent lies, and its quarantine frames forged-at scapegoats forever; adding transferable per-broadcast signatures, cross-receiver receipt gossip and proof forwarding convicts equivocators on evidence no forwarder can fake, while a parole interval with a halved budget turns the framed scapegoat's exile into a bounded outage — all for a bounded receipt-traffic amplification",
		Table: tb,
		Notes: []string{
			"chordal 16-ring (links to ring neighbors and to entities two steps away), query at t=25 from entity 1, horizon 3000; entity 3 (and in the storm 7 and 11) equivocates toward its two mutually-adjacent victims with p=1; the forge level replays E22's framing attack (7 signs as the innocent 5) during [0,300) only; audit arm: gossip every 8 ticks, budget 32 receipts, hold window 16 ticks, parole 150",
			"valid* = ValidModuloQuarantine on the auth-only arm; valid** = ValidModuloProven on the audit arm (every missed stable participant is a PROVEN equivocator); proven frac = equivocated broadcasts (divergent copies actually delivered) some entity proved; detect t = first conviction (absolute tick; query starts at 25); proof frac = fraction of the other 15 entities ever holding proof, averaged over offenders; false quar = falsely quarantined links on the audit arm; recov = worst time from a false link's first quarantine to its final parole (-1 = never recovers, '-' = nothing to recover); rcpt amp = audit-arm messages over auth-arm messages",
		},
	}
}
