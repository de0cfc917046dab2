package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/sim"
	"repro/internal/tq"
)

// simStats is every simulated statistic of one executed cell. A change
// that only makes the simulator faster must leave all of it untouched;
// the digest over it is what goldens and rep-to-rep checks compare.
type simStats struct {
	Events         int
	Messages       core.MessageStats
	MaxConcurrency int
	Reliable       node.ReliableCounters
	Auth           node.AuthCounters
	Audit          node.AuditCounters
	AuditSummary   node.AuditSummary
	Identity       node.IdentityCounters
	Reconfig       node.ReconfigCounters
	Pex            node.PexCounters
	PexConvergedAt int64
	Querier        graph.NodeID
	Outcome        otq.Outcome
	Inferred       string
	TQ             tq.Report
	TQOps          int
	TQMsgs         int
	// TQCounters is the client's own tally.
	TQCounters tq.Counters
}

// collect reads a finished cell's statistics and runs its finish hook.
func collect(c cell, res exp.RunResult) (simStats, error) {
	st := simStats{
		Events:         res.Trace.Len(),
		Messages:       res.Messages,
		MaxConcurrency: res.Trace.MaxConcurrency(),
		Reliable:       res.Reliable,
		Auth:           res.Auth,
		Audit:          res.Audit,
		AuditSummary:   res.AuditSummary,
		Identity:       res.Identity,
		Reconfig:       res.Reconfig,
		Pex:            res.Pex,
		PexConvergedAt: res.PexConvergedAt,
		Querier:        res.Querier,
		Outcome:        res.Outcome,
	}
	if res.Run != nil && !c.sc.LiteTrace && !c.noJudge {
		st.Inferred = res.Inferred.String()
	}
	if c.finish != nil {
		if err := c.finish(res, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// digest hashes the statistics of one execution (all its cells, in order).
func digest(stats []simStats) string {
	h := sha256.New()
	for _, st := range stats {
		// %#v, not %+v: several of these types have String methods that
		// summarise, and the digest must see every field.
		fmt.Fprintf(h, "%#v\n", st)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// span is one timed interval of the traced run. parent indexes the span
// that caused it (-1 for a root); start and end are seconds since the
// traced run began.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// probe is the traced run's recorder: spans around each public call of
// the execute sequence, and call counters with accumulated time for the
// two per-event hooks the runtime accepts from outside (the behaviour
// factory and the trace sink), which fire far too often to store a span
// each. A nil probe records nothing and wraps nothing.
type probe struct {
	t0    time.Time
	spans []span
	open  []int

	recvCalls, sinkCalls int
	recvTime, sinkTime   time.Duration
	// recvDepth > 0 while a behaviour callback is on the stack; sink time
	// spent there is subtracted from the behaviour's own, so the two
	// never count one interval twice.
	recvDepth  int
	sinkInRecv time.Duration
	recvStart  time.Time

	fired uint64
	// world is the last world driven, kept so the direct pex timings can
	// read real view records out of it.
	world *node.World
	// events keeps the head of the recorded stream as replay input for
	// the direct core.Trace.Record timings.
	events []core.TraceEvent
}

const probeEventCap = 1 << 16

func newProbe() *probe { return &probe{t0: time.Now()} }

func (p *probe) begin(name string) {
	if p == nil {
		return
	}
	parent := -1
	if len(p.open) > 0 {
		parent = p.open[len(p.open)-1]
	}
	p.open = append(p.open, len(p.spans))
	p.spans = append(p.spans, span{Name: name, Start: time.Since(p.t0).Seconds(), Parent: parent})
}

func (p *probe) end() {
	if p == nil {
		return
	}
	i := p.open[len(p.open)-1]
	p.open = p.open[:len(p.open)-1]
	p.spans[i].End = time.Since(p.t0).Seconds()
}

// total sums the durations of every span with the given name.
func (p *probe) total(name string) float64 {
	var s float64
	for _, sp := range p.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// sink wraps a trace sink with a call counter and timer.
func (p *probe) sink(fn func(core.TraceEvent)) func(core.TraceEvent) {
	if p == nil {
		return fn
	}
	return func(ev core.TraceEvent) {
		start := time.Now()
		fn(ev)
		d := time.Since(start)
		p.sinkCalls++
		p.sinkTime += d
		if p.recvDepth > 0 {
			p.sinkInRecv += d
		}
	}
}

// capture is the probe's own sink: it keeps the first probeEventCap events.
func (p *probe) capture(ev core.TraceEvent) {
	if len(p.events) < probeEventCap {
		p.events = append(p.events, ev)
	}
}

// recvEdge opens (enter) or closes the timed window around one behaviour
// callback. Two of them bracket the real behaviour inside a
// node.Composite, which keeps node.FindBehavior — how protocols locate
// their own state — working on the wrapped entity.
type recvEdge struct {
	p     *probe
	enter bool
}

func (e recvEdge) Init(*node.Proc)                  { e.mark() }
func (e recvEdge) Receive(*node.Proc, node.Message) { e.mark() }

func (e recvEdge) mark() {
	p := e.p
	if e.enter {
		if p.recvDepth == 0 {
			p.recvStart = time.Now()
		}
		p.recvDepth++
		return
	}
	p.recvDepth--
	if p.recvDepth == 0 {
		p.recvTime += time.Since(p.recvStart)
		p.recvCalls++
	}
}

func (p *probe) factory(f node.BehaviorFactory) node.BehaviorFactory {
	if p == nil {
		return f
	}
	if f == nil {
		f = func(graph.NodeID) node.Behavior { return node.Nop{} }
	}
	return func(id graph.NodeID) node.Behavior {
		return node.Compose(recvEdge{p, true}, f(id), recvEdge{p, false})
	}
}

// drive repeats exp.Execute's sequence with public calls only, so the
// benchmark can put a span around each phase and run the ladder rows
// Execute refuses (a query with no judge). Every traced run checks that
// its digest equals the exp.Execute path's on the same cell. Scenario
// fields no workload sets (ValueOf) are not carried over.
func drive(c cell, p *probe) exp.RunResult {
	sc := c.sc
	p.begin("exp.execute")
	defer p.end()

	p.begin("exp.setup")
	engine := sim.New()
	var proto otq.Protocol
	factory := sc.Factory
	if sc.Protocol != nil {
		proto = sc.Protocol()
		factory = proto.Factory()
	}
	w := node.NewWorld(engine, sc.Overlay(sc.Seed), p.factory(factory), node.Config{
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
	})
	if sc.LiteTrace {
		w.Trace.SetCountOnly(true)
	}
	opts := otq.CheckOptions{BridgeRecoveries: sc.BridgeRecoveries, BridgeRejoins: sc.BridgeRejoins}
	var checker *otq.StreamChecker
	if sc.StreamCheck && !c.noJudge {
		checker = otq.NewStreamChecker(opts)
		w.Trace.Stream(p.sink(checker.Observe))
	}
	if p != nil && len(p.events) == 0 {
		// Only the first cell's stream: a replay must not go back in time.
		w.Trace.Stream(p.capture)
	}
	if sc.Faults != nil {
		defer sc.Faults.Attach(w)()
	}
	if sc.Script != nil {
		sc.Script(w, engine)
	}
	if sc.Churn.InitialPopulation > 0 || sc.Churn.ArrivalRate > 0 {
		w.ApplyChurn(churn.New(sc.Seed^0xcccc, sc.Churn), sc.Horizon)
	}
	p.end()

	var run *otq.Run
	res := exp.RunResult{}
	if proto != nil {
		p.begin("sim.run")
		engine.RunUntil(sc.QueryAt)
		p.end()
		present := w.Present()
		res.Querier = present[min(sc.QuerierIndex, len(present)-1)]
		run = proto.Launch(w, res.Querier)
		if checker != nil {
			checker.Arm(run)
		}
	}
	p.begin("sim.run")
	engine.RunUntil(sc.Horizon)
	p.end()
	w.Close()
	if p != nil {
		p.fired += engine.Fired()
		p.world = w
	}

	res.Trace = w.Trace
	res.Run = run
	res.Messages = w.Trace.Messages("")
	res.Reliable = w.ReliableTotals()
	res.Auth = w.AuthTotals()
	res.Audit = w.AuditTotals()
	res.AuditSummary = w.AuditSummary()
	res.Identity = w.IdentityTotals()
	res.Reconfig = w.ReconfigTotals()
	res.Pex = w.PexTotals()
	res.PexConvergedAt = w.PexConvergedAt()
	if proto == nil || c.noJudge {
		return res
	}
	valueOf := func(id graph.NodeID) float64 { return float64(id) }
	p.begin("otq.check")
	if checker != nil {
		res.Outcome = checker.Finish(w.Trace.End(), valueOf)
	} else {
		res.Outcome = otq.CheckWith(w.Trace, run, valueOf, opts)
	}
	p.end()
	if !sc.LiteTrace {
		p.begin("core.infer")
		res.Inferred = core.InferClass(w.Trace)
		p.end()
	}
	return res
}
