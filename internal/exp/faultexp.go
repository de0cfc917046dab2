package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/sim"
	"repro/internal/stats"
)

// e21Reliable is the retransmit discipline E21 measures: first retry
// after 5 ticks, doubling, budget 6 — the whole schedule (~315 ticks)
// spans the plans' crash gap, so a tracked message can cross it.
var e21Reliable = node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6}

// e21Adaptive is the same discipline with the Jacobson/Karels estimator
// replacing the fixed schedule: once acks have seeded SRTT/RTTVAR, each
// fresh message times out near the measured round trip instead of the
// configured 5, so retransmissions fire sooner through latency spikes and
// less often when the channel is merely slow.
var e21Adaptive = node.ReliableConfig{
	Enabled: true, Adaptive: true, RetransmitAfter: 5, MaxRetries: 6,
}

// e21Plan builds the storm level's fault plan (nil = clean channels).
// Every level embeds the run seed so repetitions draw independent fault
// sequences, deterministically.
func e21Plan(level string, seed uint64) *fault.Plan {
	var spec string
	switch level {
	case "none":
		return nil
	case "burst":
		spec = "burst:pgb=0.08,pbg=0.2,lossbad=0.95"
	case "storm":
		spec = "burst:pgb=0.08,pbg=0.2,lossbad=0.95;reorder:p=0.2,window=6;" +
			"spike:nodes=5+9,delay=3@25-400;blackout:pair=2>3@40-160"
	case "storm+crash":
		spec = "burst:pgb=0.08,pbg=0.2,lossbad=0.95;reorder:p=0.2,window=6;" +
			"spike:nodes=5+9,delay=3@25-400;blackout:pair=2>3@40-160;" +
			"crash:nodes=4+12,recover=50@60"
	default:
		panic("exp: unknown E21 storm level " + level)
	}
	return mustPlan(fmt.Sprintf("%s;seed=%d", spec, seed^0x21))
}

// mustPlan parses an experiment's own fault plan; a spec that does not
// parse is a bug in the experiment, not an input condition.
func mustPlan(spec string) *fault.Plan {
	pl, err := fault.Parse(spec)
	if err != nil {
		panic(err.Error())
	}
	return pl
}

// e21Run executes one E21 cell: the protocol on a 16-cycle under the
// level's fault plan, over raw or reliable channels.
func e21Run(cfg Config, proto otq.Protocol, level string, seed uint64, rc node.ReliableConfig) (otq.Outcome, *otq.Run, core.MessageStats, node.ReliableCounters) {
	ncfg := node.Config{MinLatency: 1, MaxLatency: 2, Seed: seed, Reliable: rc}
	w, r, out := stormCell(ncfg, cycleScript(16), e21Plan(level, seed), proto, cfg.horizon(3000),
		otq.CheckOptions{BridgeRecoveries: strings.Contains(level, "crash")}, nil)
	return out, r, w.Trace.Messages(""), w.ReliableTotals()
}

// stormCell runs one cell of the fault-storm experiments (E21–E26), which
// all share this skeleton: a world on a manual overlay with pl (nil = no
// faults) attached before script populates it, the query launched at
// entity 1 at t=25, the run taken to horizon and judged under opts. mid,
// when non-nil, is called between the launch and the final stretch to take
// the run to an intermediate instant and read the world there. The closed
// world comes back for the cell's own counters.
func stormCell(ncfg node.Config, script func(*node.World, *sim.Engine), pl *fault.Plan, proto otq.Protocol,
	horizon sim.Time, opts otq.CheckOptions, mid func(*node.World, *sim.Engine)) (*node.World, *otq.Run, otq.Outcome) {
	engine := sim.New()
	w := node.NewWorld(engine, manualOverlay(ncfg.Seed), proto.Factory(), ncfg)
	stop := func() {}
	if pl != nil {
		stop = pl.Attach(w)
	}
	script(w, engine)
	engine.RunUntil(25)
	r := proto.Launch(w, 1)
	if mid != nil {
		mid(w, engine)
	}
	engine.RunUntil(horizon)
	stop()
	w.Close()
	return w, r, otq.CheckWith(w.Trace, r, nil, opts)
}

// sketchCountError is the sketch answer's relative count error against
// the true population n (1 when the run never answered).
func sketchCountError(r *otq.Run, n int) float64 {
	ans := r.Answer()
	if ans == nil {
		return 1
	}
	return math.Abs(ans.Result(agg.Count)-float64(n)) / float64(n)
}

// E21 — the robustness dimension: a sweep of deterministic fault storms
// (correlated burst loss, reordering, latency spikes, a directed
// blackout, finally silent crash–recovery) against the exact anti-entropy
// wave and the sketch wave, each over raw fire-and-forget channels and
// over the ack/retransmit sublayer. The exact wave's per-neighbor send
// watermarks assume the channel keeps what it accepted, so burst loss
// silently starves its coverage and the querier answers early — invalid.
// The reliable sublayer restores validity by retrying past the bad
// spells, at a measured message amplification. The crash level judges
// validity over recovery-bridged sessions: a participant that crashes
// and recovers with its stable storage intact still counts as stable.
func E21(cfg Config) *Report {
	tb := stats.NewTable("storm", "echo raw valid", "echo rel valid", "echo raw cover",
		"echo rel cover", "sketch raw err", "sketch rel err", "msg amp", "retries",
		"amp adp", "retries adp")
	echo := func() otq.Protocol {
		return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
	}
	sketch := func() otq.Protocol {
		return &otq.SketchWave{Rows: 64, RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
	}
	for _, level := range []string{"none", "burst", "storm", "storm+crash"} {
		var rawValid, relValid, rawCover, relCover stats.Sample
		var rawErr, relErr, amp, retries stats.Sample
		var ampAdp, retriesAdp stats.Sample
		for s := 0; s < cfg.seeds(); s++ {
			seed := uint64(s + 1)
			out, _, rawMsgs, _ := e21Run(cfg, echo(), level, seed, node.ReliableConfig{})
			rawValid.AddBool(out.Valid())
			rawCover.Add(coverage(out))
			out, _, relMsgs, counters := e21Run(cfg, echo(), level, seed, e21Reliable)
			relValid.AddBool(out.Valid())
			relCover.Add(coverage(out))
			if rawMsgs.Sent > 0 {
				amp.Add(float64(relMsgs.Sent) / float64(rawMsgs.Sent))
			}
			retries.Add(float64(counters.Retries))
			_, _, adpMsgs, adpCounters := e21Run(cfg, echo(), level, seed, e21Adaptive)
			if rawMsgs.Sent > 0 {
				ampAdp.Add(float64(adpMsgs.Sent) / float64(rawMsgs.Sent))
			}
			retriesAdp.Add(float64(adpCounters.Retries))

			_, runS, _, _ := e21Run(cfg, sketch(), level, seed, node.ReliableConfig{})
			rawErr.Add(sketchCountError(runS, 16))
			_, runS, _, _ = e21Run(cfg, sketch(), level, seed, e21Reliable)
			relErr.Add(sketchCountError(runS, 16))
		}
		tb.AddRow(level, rawValid.Mean(), relValid.Mean(), rawCover.Mean(), relCover.Mean(),
			rawErr.Mean(), relErr.Mean(), amp.Mean(), retries.Mean(),
			ampAdp.Mean(), retriesAdp.Mean())
	}
	return &Report{
		ID:    "E21",
		Title: "fault storms: raw vs reliable channels, exact vs sketch",
		Claim: "correlated burst loss silently starves the exact wave's optimistic anti-entropy and it answers early and invalid; an ack/retransmit sublayer under the same protocol restores validity at a measured message amplification, and recovery-bridged stability extends the verdict across crash–recovery gaps",
		Table: tb,
		Notes: []string{
			"16-cycle, query at t=25 from entity 1; storm adds reorder+spike+blackout to burst, crash level crashes entities 4 and 12 at t=60 and recovers them 50 ticks later from stable storage",
			"msg amp = reliable/raw total sends for the echo wave (acks and retransmissions included); crash-level validity judged over recovery-bridged sessions",
			"amp adp / retries adp = the same echo-wave arm with the adaptive (Jacobson/Karels) timeout in place of the fixed schedule — per-pair SRTT+4·RTTVAR, Karn's rule, same retry budget",
		},
	}
}
