// Package exp is the experiment harness: it assembles worlds out of the
// substrates (sim, churn, topology, node, otq), executes runs, judges them
// with the specification checkers, and renders the result tables recorded
// in EXPERIMENTS.md.
//
// The paper is a position paper with no numbered tables or figures; each
// experiment here operationalizes one of its qualitative claims (C1-C6 in
// DESIGN.md) so the claim becomes measurable. Experiment IDs E1-E30 are
// ours and are indexed in DESIGN.md.
package exp

import (
	"fmt"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Scenario describes one simulated run end to end.
type Scenario struct {
	Seed uint64
	// Overlay builds the topology maintenance policy for this run.
	Overlay func(seed uint64) topology.Overlay
	// Churn configures membership dynamics; ignored when Script is set
	// and Churn is the zero Config.
	Churn churn.Config
	// Script, when set, runs right after world construction (at t=0); use
	// it for manual population and staged interventions.
	Script func(w *node.World, e *sim.Engine)
	// Protocol builds the (single-use) query protocol for this run. Nil
	// runs the world with no query and no OTQ judgment — membership and
	// throughput studies at populations where a judged query would not
	// fit (the Outcome, Run and Inferred fields stay zero).
	Protocol func() otq.Protocol
	// Factory, for protocol-less scenarios, runs this behavior on every
	// entity instead of Nop — register families (internal/tq,
	// internal/dynreg) and other non-OTQ protocols ride the world
	// through it, driven from Script. Mutually exclusive with Protocol.
	Factory node.BehaviorFactory
	// LiteTrace switches the trace to count-only retention (see
	// core.Trace.SetCountOnly): message and concurrency counters stay
	// exact but individual events are discarded, keeping 100k-entity
	// runs in memory. Requires a nil Protocol (a post-hoc replay of the
	// OTQ judge reads events) unless StreamCheck is set.
	LiteTrace bool
	// StreamCheck feeds the OTQ judge (otq.StreamChecker) from the live
	// event stream instead of replaying the retained trace through it
	// after the run (otq.CheckWith). The judge and the verdict are the
	// same; the point is composition with LiteTrace, which makes judged
	// runs possible at populations whose full event logs would not fit in
	// memory. Requires a Protocol. Inferred stays zero under LiteTrace
	// (class inference still reads events).
	StreamCheck bool
	// Latency bounds per-hop delay; zero means [1, 1].
	MinLatency, MaxLatency sim.Time
	// LossRate drops messages independently.
	LossRate float64
	// Faults, when set, is attached to the world for the whole run (its
	// clause windows are absolute virtual times).
	Faults *fault.Plan
	// Reliable configures the ack/retransmit channel sublayer.
	Reliable node.ReliableConfig
	// Auth configures the authentication/quarantine channel sublayer.
	Auth node.AuthConfig
	// Audit configures the equivocation audit sublayer (requires Auth).
	Audit node.AuditConfig
	// Identity configures durable identity continuity across Leave/Join.
	Identity node.IdentityConfig
	// Reconfig configures the live stack-reconfiguration layer (epoch
	// machinery plus quiescence handshake); faults may then carry
	// reconfig clauses.
	Reconfig node.ReconfigConfig
	// Pex configures the partial-view membership overlay (requires an
	// Overlay implementing topology.LinkController); faults may then
	// carry poison clauses.
	Pex pex.Config
	// BridgeRecoveries judges Validity over recovery-bridged sessions:
	// entities that crash and recover within the query interval still
	// count as stable participants (see otq.CheckOptions).
	BridgeRecoveries bool
	// BridgeRejoins judges Validity over rejoin-bridged sessions: entities
	// that leave and rejoin under the same identity (and crash-recoverers)
	// still count as stable participants. Subsumes BridgeRecoveries.
	BridgeRejoins bool
	// QueryAt is when the query launches; the querier is the entity at
	// QuerierIndex in the ascending list of entities present then.
	QueryAt sim.Time
	// QuerierIndex selects the querier among the present entities
	// (clamped to the population). 0 picks the lowest-numbered one.
	QuerierIndex int
	// Horizon is when the run stops.
	Horizon sim.Time
	// ValueOf overrides the default id-valued assignment.
	ValueOf func(graph.NodeID) float64
}

// RunResult is everything a single execution produces.
type RunResult struct {
	Outcome  otq.Outcome
	Trace    *core.Trace
	Run      *otq.Run
	Inferred core.Class
	Messages core.MessageStats
	// Reliable sums the ack/retransmit sublayer's counters (zero when the
	// sublayer was not enabled).
	Reliable node.ReliableCounters
	// Auth sums the authentication sublayer's counters (zero when the
	// sublayer was not enabled).
	Auth node.AuthCounters
	// Audit sums the audit sublayer's counters, and AuditSummary holds its
	// run-level evidence view (zero when the sublayer was not enabled).
	Audit        node.AuditCounters
	AuditSummary node.AuditSummary
	// Identity sums the identity-continuity counters (zero when durable
	// identity was not enabled and no entity ever rejoined).
	Identity node.IdentityCounters
	// Reconfig sums the reconfiguration layer's counters (zero when the
	// layer was not enabled).
	Reconfig node.ReconfigCounters
	// Pex sums the membership overlay's counters; PexConvergedAt is the
	// first sampled tick the overlay was fully connected (-1 when the
	// layer was off or never converged).
	Pex            node.PexCounters
	PexConvergedAt int64
	Querier        graph.NodeID
}

// Execute runs a scenario to completion and judges it.
func Execute(sc Scenario) RunResult {
	if sc.Horizon <= 0 {
		panic("exp: scenario needs a positive horizon")
	}
	engine := sim.New()
	var proto otq.Protocol
	var factory node.BehaviorFactory
	if sc.Protocol != nil {
		if sc.Factory != nil {
			panic("exp: Protocol and Factory are mutually exclusive")
		}
		proto = sc.Protocol()
		factory = proto.Factory()
	} else {
		if sc.QueryAt > 0 {
			panic("exp: QueryAt set on a protocol-less scenario")
		}
		factory = sc.Factory
	}
	if sc.StreamCheck && proto == nil {
		panic("exp: StreamCheck without a Protocol has nothing to judge")
	}
	if sc.LiteTrace && proto != nil && !sc.StreamCheck {
		panic("exp: LiteTrace discards the events a post-hoc OTQ replay needs; add StreamCheck or use a nil Protocol")
	}
	valueOf := sc.ValueOf
	w := node.NewWorld(engine, sc.Overlay(sc.Seed), factory, node.Config{
		MinLatency: sc.MinLatency,
		MaxLatency: sc.MaxLatency,
		LossRate:   sc.LossRate,
		Reliable:   sc.Reliable,
		Auth:       sc.Auth,
		Audit:      sc.Audit,
		Identity:   sc.Identity,
		Reconfig:   sc.Reconfig,
		Pex:        sc.Pex,
		Seed:       sc.Seed ^ 0xdddd,
		ValueOf:    valueOf,
	})
	if sc.LiteTrace {
		w.Trace.SetCountOnly(true)
	}
	opts := otq.CheckOptions{BridgeRecoveries: sc.BridgeRecoveries, BridgeRejoins: sc.BridgeRejoins}
	var checker *otq.StreamChecker
	if sc.StreamCheck {
		checker = otq.NewStreamChecker(opts)
		w.Trace.Stream(checker.Observe)
	}
	if sc.Faults != nil {
		// Attach before the script so even the population's first sends
		// pass through the plan's channel hook.
		stop := sc.Faults.Attach(w)
		defer stop()
	}
	if sc.Script != nil {
		sc.Script(w, engine)
	}
	if sc.Churn.InitialPopulation > 0 || sc.Churn.ArrivalRate > 0 {
		gen := churn.New(sc.Seed^0xcccc, sc.Churn)
		w.ApplyChurn(gen, sc.Horizon)
	}
	var querier graph.NodeID
	var run *otq.Run
	if proto != nil {
		engine.RunUntil(sc.QueryAt)
		present := w.Present()
		if len(present) == 0 {
			panic("exp: no entity present at query time")
		}
		idx := sc.QuerierIndex
		if idx >= len(present) {
			idx = len(present) - 1
		}
		querier = present[idx]
		run = proto.Launch(w, querier)
		if checker != nil {
			checker.Arm(run)
		}
	}
	engine.RunUntil(sc.Horizon)
	w.Close()
	if valueOf == nil {
		valueOf = func(id graph.NodeID) float64 { return float64(id) }
	}
	res := RunResult{
		Trace:          w.Trace,
		Run:            run,
		Messages:       w.Trace.Messages(""),
		Reliable:       w.ReliableTotals(),
		Auth:           w.AuthTotals(),
		Audit:          w.AuditTotals(),
		AuditSummary:   w.AuditSummary(),
		Identity:       w.IdentityTotals(),
		Reconfig:       w.ReconfigTotals(),
		Pex:            w.PexTotals(),
		PexConvergedAt: w.PexConvergedAt(),
		Querier:        querier,
	}
	if proto != nil {
		if checker != nil {
			res.Outcome = checker.Finish(w.Trace.End(), valueOf)
		} else {
			res.Outcome = otq.CheckWith(w.Trace, run, valueOf, opts)
		}
		if !sc.LiteTrace {
			res.Inferred = core.InferClass(w.Trace)
		}
	}
	return res
}

// Report is one experiment's rendered result.
type Report struct {
	ID    string
	Title string
	Claim string
	Table *stats.Table
	Notes []string
}

// String renders the report as the plain text recorded in EXPERIMENTS.md.
func (r *Report) String() string {
	out := fmt.Sprintf("== %s: %s ==\nClaim: %s\n\n%s", r.ID, r.Title, r.Claim, r.Table)
	for _, n := range r.Notes {
		out += fmt.Sprintf("note: %s\n", n)
	}
	return out
}

// Config scales the experiment suite.
type Config struct {
	// Seeds is the number of independent repetitions per cell.
	Seeds int
	// Quick shrinks populations and horizons (CI-sized runs).
	Quick bool
}

// DefaultConfig is the configuration the recorded EXPERIMENTS.md numbers
// were produced with.
var DefaultConfig = Config{Seeds: 5}

func (c Config) seeds() int {
	if c.Seeds <= 0 {
		return 5
	}
	return c.Seeds
}

// scale halves sizes in quick mode.
func (c Config) scale(n int) int {
	if c.Quick && n > 8 {
		return n / 2
	}
	return n
}

// horizon halves run lengths in quick mode.
func (c Config) horizon(t sim.Time) sim.Time {
	if c.Quick {
		return t / 2
	}
	return t
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) *Report
}

// All returns every experiment in suite order.
func All() []Experiment {
	return []Experiment{
		{"E1", "static baseline: flooding solves OTQ", E1},
		{"E2", "solvability matrix: protocols x classes", E2},
		{"E3", "fixed TTL vs actual diameter", E3},
		{"E4", "churn-rate sweep: known-D vs unknown-D overlays", E4},
		{"E5", "arrival models and class checking", E5},
		{"E6", "gossip: graceful degradation vs exact failure", E6},
		{"E7", "reliable registers from unreliable ones", E7},
		{"E8", "consensus self-implementation", E8},
		{"E9", "temporal reachability under churn", E9},
		{"E10", "message loss: single vs repeated flooding", E10},
		{"E11", "cost of scale: exact protocols on growing static cycles", E11},
		{"E12", "ablation: the echo wave's quiescence window", E12},
		{"E13", "a register in the dynamic system: regularity vs churn", E13},
		{"E14", "structured overlays restore the known-diameter class", E14},
		{"E15", "reliable broadcast: flood vs anti-entropy under churn", E15},
		{"E16", "exact identity sets vs duplicate-insensitive sketches", E16},
		{"E17", "greedy key lookup on the structured overlay", E17},
		{"E18", "standing queries: per-epoch validity under churn", E18},
		{"E19", "eventual leader election under churn", E19},
		{"E20", "link flapping: geography dynamics with frozen membership", E20},
		{"E21", "fault storms: raw vs reliable channels, exact vs sketch", E21},
		{"E22", "byzantine links: raw vs authenticated channels, exact vs sketch", E22},
		{"E23", "equivocation storms: auth alone vs auth + audit with parole", E23},
		{"E24", "colluding equivocators: 1-hop receipt push vs pull anti-entropy", E24},
		{"E25", "byzantine churn: session-keyed vs durable identity under rejoin laundering", E25},
		{"E26", "live reconfiguration: quiescence handshake under fault storms", E26},
		{"E27", "view poisoning: partial-view membership with and without the view audit", E27},
		{"E28", "engine scale: 1k-100k entity worlds with live membership and churn", E28},
		{"E29", "judged scale: streaming OTQ verdicts over live full worlds", E29},
		{"E30", "timed quorums: graceful register degradation over pex", E30},
	}
}
