package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/stats"
)

// ByzLevels are the canned adversary levels E22 sweeps, exposed so that
// cmd/ddsim's -byzantine flag offers exactly the suite's adversaries.
var ByzLevels = []string{"none", "corrupt", "replay+forge", "byz-storm", "equiv"}

// ByzPlan builds the canned Byzantine plan of one E22 level for ad-hoc
// runs (nil for "none"); it panics on an unknown level, so flag handlers
// should check against ByzLevels first.
func ByzPlan(level string, seed uint64) *fault.Plan { return e22Plan(level, seed) }

// e22Plan builds the Byzantine level's fault plan (nil = honest run).
// Entities 3 and 7 are the compromised senders; the forge clause makes 7
// sign as the innocent 5 (the framing cost E22 measures), and the equiv
// clause makes 3 tell signed lies to its two cycle neighbors. Every level
// embeds the run seed so repetitions draw independent fault sequences,
// deterministically.
func e22Plan(level string, seed uint64) *fault.Plan {
	var spec string
	switch level {
	case "none":
		return nil
	case "corrupt":
		spec = "corrupt:nodes=3+7,p=0.25"
	case "replay+forge":
		spec = "replay:nodes=3+7,p=0.3,window=12;forge:nodes=7,as=5,p=0.6"
	case "byz-storm":
		spec = "corrupt:nodes=3+7,p=0.25;replay:nodes=3+7,p=0.3,window=12;" +
			"forge:nodes=7,as=5,p=0.6"
	case "equiv":
		spec = "equiv:nodes=3,peers=2+4,p=1"
	default:
		panic("exp: unknown E22 byzantine level " + level)
	}
	return mustPlan(fmt.Sprintf("%s;seed=%d", spec, seed^0x22))
}

// e22Offenders is the ground-truth compromised set of each level — what a
// quarantine SHOULD blame. Anything quarantined outside this set is a
// false quarantine (under forgery, the framed scapegoat 5).
func e22Offenders(level string) map[graph.NodeID]bool {
	switch level {
	case "none":
		return nil
	case "equiv":
		return map[graph.NodeID]bool{3: true}
	default:
		return map[graph.NodeID]bool{3: true, 7: true}
	}
}

// e22Run executes one E22 cell: the protocol on a 16-cycle under the
// level's Byzantine plan. Both arms run over the reliable sublayer — the
// comparison isolates authentication, not retransmission — so a rejected
// copy goes unacked and the sender's retry delivers a clean one.
func e22Run(cfg Config, proto otq.Protocol, level string, seed uint64, auth bool) (otq.Outcome, *otq.Run, *core.Trace, core.MessageStats, node.AuthCounters) {
	ncfg := node.Config{MinLatency: 1, MaxLatency: 2, Seed: seed, Reliable: e21Reliable}
	if auth {
		ncfg.Auth = node.AuthConfig{Enabled: true}
	}
	w, r, out := stormCell(ncfg, cycleScript(16), e22Plan(level, seed), proto, cfg.horizon(3000), otq.CheckOptions{}, nil)
	return out, r, w.Trace, w.Trace.Messages(""), w.AuthTotals()
}

// e22DetectAt is the earliest authentication rejection in the trace — the
// sublayer's detection time for the injected misbehavior. ok is false
// when nothing was ever rejected (the honest level, or pure equivocation,
// which signed channels cannot see).
func e22DetectAt(tr *core.Trace) (core.Time, bool) {
	t, ok := tr.FirstMark(node.MarkAuthRejectCorrupt)
	if t2, ok2 := tr.FirstMark(node.MarkAuthRejectReplay); ok2 && (!ok || t2 < t) {
		t, ok = t2, true
	}
	return t, ok
}

// e22FalseQuarantines counts quarantined entities outside the level's
// compromised set.
func e22FalseQuarantines(out otq.Outcome, level string) int {
	offenders := e22Offenders(level)
	n := 0
	for _, id := range out.Quarantined {
		if !offenders[id] {
			n++
		}
	}
	return n
}

// E22 — the Byzantine dimension: a sweep of adversarial link behaviors
// (in-flight corruption, replay, sender forgery, finally equivocation)
// against the exact anti-entropy wave and the sketch wave, each over
// plain reliable channels ("raw") and with the authentication/quarantine
// sublayer stacked on top ("auth"). Raw receivers fold tampered
// contributions straight into their answers — fabricated contributors and
// corrupted values, the two Validity violations the checker names.
// Authenticated receivers reject every copy whose tag fails or whose
// sequence number replays, and quarantine a link after Budget rejections,
// so the tampering degrades into omission — which the retransmit sublayer
// underneath already absorbs. The verdict an authenticated run earns is
// ValidModuloQuarantine: nothing false entered the answer, and every miss
// is attributable to a quarantined (or framed) neighbor. Equivocation is
// the designed limit: signed lies verify, both arms fail, and only the
// framing column distinguishes an honest channel from a lying sender.
func E22(cfg Config) *Report {
	tb := stats.NewTable("byzantine", "echo raw valid", "echo auth valid*",
		"sketch raw err", "sketch auth err", "detect t", "false quar", "rejects", "msg amp")
	echo := func() otq.Protocol {
		return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
	}
	sketch := func() otq.Protocol {
		return &otq.SketchWave{Rows: 64, RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
	}
	for _, level := range []string{"none", "corrupt", "replay+forge", "byz-storm", "equiv"} {
		var rawValid, authValid, rawErr, authErr stats.Sample
		var detect, falseQ, rejects, amp stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			out, _, _, rawMsgs, _ := e22Run(cfg, echo(), level, seed, false)
			rawValid.AddBool(out.Valid())
			out, _, tr, authMsgs, tot := e22Run(cfg, echo(), level, seed, true)
			authValid.AddBool(out.ValidModuloQuarantine())
			if at, ok := e22DetectAt(tr); ok {
				detect.Add(float64(at))
			}
			falseQ.Add(float64(e22FalseQuarantines(out, level)))
			rejects.Add(float64(tot.RejectedCorrupt + tot.RejectedReplay))
			if rawMsgs.Sent > 0 {
				amp.Add(float64(authMsgs.Sent) / float64(rawMsgs.Sent))
			}

			_, runS, _, _, _ := e22Run(cfg, sketch(), level, seed, false)
			rawErr.Add(sketchCountError(runS, 16))
			_, runS, _, _, _ = e22Run(cfg, sketch(), level, seed, true)
			authErr.Add(sketchCountError(runS, 16))
		}
		tb.AddRow(level, rawValid.Mean(), authValid.Mean(), rawErr.Mean(), authErr.Mean(),
			detect.Mean(), falseQ.Mean(), rejects.Mean(), amp.Mean())
	}
	return &Report{
		ID:    "E22",
		Title: "byzantine links: raw vs authenticated channels, exact vs sketch",
		Claim: "an adversary that corrupts, replays, or forges on the links makes the exact wave answer with fabricated contributors and corrupted values; a per-pair authentication sublayer with anti-replay windows and neighbor quarantine reduces every such fault to an omission the retransmit layer already repairs — at the cost of framing under forgery, and with signed equivocation as the designed blind spot",
		Table: tb,
		Notes: []string{
			"16-cycle, query at t=25 from entity 1; entities 3 and 7 are compromised, the forge clause signs as the innocent 5, the equiv clause lies only to 3's cycle neighbors; both arms run over the reliable sublayer",
			"valid* = ValidModuloQuarantine (nothing fabricated or corrupted accepted; every missed stable participant was quarantined by some receiver); detect t = earliest auth rejection ('-' where nothing is rejectable); false quar = quarantined entities outside the compromised set (the framed scapegoat); replayed copies under the reliable sublayer are usually absorbed as duplicates before the anti-replay window sees them",
		},
	}
}
