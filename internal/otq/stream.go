package otq

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
)

// This file implements the one OTQ judge: the streaming checker, which
// computes the Outcome incrementally from the event stream, retaining
// state proportional to live sessions and window participants instead of
// to the recorded event count. CheckWith replays a retained trace through
// it, so a live feed and a post-hoc replay are one judge. Its referees are
// test-local: refCheckWith in this package's tests (a batch judgment over
// the whole trace, with its own stable-set, ever-present and temporal
// reachability logic) referees both feeds, and internal/exp holds both to
// frozen verdicts an independent batch judge produced.

// StreamChecker judges a One-Time Query run from the live event stream.
// Feed it every recorded event by registering Observe as a trace sink
// (core.Trace.Stream) BEFORE the world records anything, call Arm when
// the protocol launches the run, and Finish once the world is closed.
//
// Memory stays O(live sessions + window participants): composed with
// count-only retention (core.Trace.SetCountOnly), it judges worlds whose
// full event logs would not fit — the trace keeps exact counters, the
// checker keeps the judgment, and nobody keeps the events.
type StreamChecker struct {
	// Session machines: stable participation under the selected bridging
	// notion, plus plain sessions — ever-presence and querier presence are
	// always judged over plain sessions, whatever the bridging.
	stableTr *core.SessionMachine
	plainTr  *core.SessionMachine

	// Live overlay graph plus the still-unapplied batch of topology
	// events sharing the current timestamp. Temporal reachability applies
	// all events of one tick before spreading; buffering one
	// tick reproduces that, and lets Arm (which fires mid-tick) see the
	// pre-tick graph for its initial spread.
	g       *graph.Graph
	pending []core.TraceEvent
	curT    core.Time
	haveCur bool

	// Query window.
	armed    bool
	run      *Run
	querier  graph.NodeID
	started  core.Time
	answered bool
	ansAt    core.Time
	frozen   bool // an event past ansAt was seen: the window's graph history is complete

	// Stable candidacy: entities whose current (bridged) session can
	// still cover [started, E]. candDown holds the silence time of
	// candidates currently suspended; confirmed holds candidates whose
	// session provably closed after the answer.
	cand      map[graph.NodeID]bool
	candDown  map[graph.NodeID]core.Time
	confirmed map[graph.NodeID]bool

	// Ever-presence over plain sessions. everPending holds entities whose
	// session starts at the arm tick exactly: they qualify only if the
	// session outlives that tick (To > started), decided at the first
	// event past it.
	everPresent  map[graph.NodeID]bool
	everPending  map[graph.NodeID]bool
	everTickDone bool

	reached map[graph.NodeID]bool
	// seeds and next are spread's frontier buffers, reused across ticks.
	seeds, next []graph.NodeID

	// Run-wide mark sets (collected over the whole trace, not just the
	// query window).
	quarantined map[graph.NodeID]bool
	proven      map[graph.NodeID]bool
	epoch       map[graph.NodeID]bool
}

// NewStreamChecker returns a checker judging with the given participation
// notion (the CheckOptions CheckWith takes).
func NewStreamChecker(opts CheckOptions) *StreamChecker {
	mode := core.BridgeNone
	if opts.BridgeRecoveries {
		mode = core.BridgeRecovery
	}
	if opts.BridgeRejoins {
		mode = core.BridgeRejoin
	}
	return &StreamChecker{
		stableTr:    core.NewSessionMachine(mode),
		plainTr:     core.NewSessionMachine(core.BridgeNone),
		g:           graph.New(),
		cand:        map[graph.NodeID]bool{},
		candDown:    map[graph.NodeID]core.Time{},
		confirmed:   map[graph.NodeID]bool{},
		everPresent: map[graph.NodeID]bool{},
		everPending: map[graph.NodeID]bool{},
		reached:     map[graph.NodeID]bool{},
		quarantined: map[graph.NodeID]bool{},
		proven:      map[graph.NodeID]bool{},
		epoch:       map[graph.NodeID]bool{},
	}
}

// poll notices a resolved answer. Resolution happens inside the
// simulation (a behaviour decides); every event recorded after it passes
// through Observe, which polls before processing — so by the time any
// event past ansAt is handled, answered is already set.
func (c *StreamChecker) poll() {
	if !c.armed || c.answered || c.run == nil {
		return
	}
	if ans := c.run.Answer(); ans != nil {
		c.answered = true
		c.ansAt = ans.At
	}
}

// spread replicates graph.Temporal.ReachableFrom's propagation step
// incrementally: information floods from seeds — reached nodes still
// present — through the current graph. The caller keeps the reached set
// closed (every present reached node's neighbors are reached), so only
// nodes whose neighborhood grew since the last spread need seeding.
func (c *StreamChecker) spread(frontier []graph.NodeID) {
	next := c.next[:0]
	for len(frontier) > 0 {
		for _, v := range frontier {
			for _, u := range c.g.Neighbors(v) {
				if !c.reached[u] {
					c.reached[u] = true
					next = append(next, u)
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
	c.seeds, c.next = frontier[:0], next[:0]
}

func applyTopo(g *graph.Graph, ev core.TraceEvent) {
	switch ev.Kind {
	case core.TJoin:
		g.AddNode(ev.P)
	case core.TLeave:
		g.RemoveNode(ev.P)
	case core.TEdgeUp:
		g.AddEdge(ev.P, ev.Q)
	case core.TEdgeDown:
		g.RemoveEdge(ev.P, ev.Q)
	}
}

// flush applies the buffered topology batch (all events at curT) and, if
// the batch falls inside the query window, lets information spread.
// Joins add isolated nodes and leaves and edge-downs only remove edges,
// so the batch can break the reached set's closure only through its
// edge-ups: the spread starts from their reached, present endpoints. A
// querier absent until now is marked reached first; every edge it has
// came in this batch's edge-ups, which then seed it.
func (c *StreamChecker) flush() {
	if len(c.pending) == 0 {
		return
	}
	for _, ev := range c.pending {
		applyTopo(c.g, ev)
	}
	if c.armed && !c.frozen && c.curT >= c.started {
		if c.g.HasNode(c.querier) {
			c.reached[c.querier] = true
		}
		seeds := c.seeds[:0]
		for _, ev := range c.pending {
			if ev.Kind != core.TEdgeUp {
				continue
			}
			for _, v := range [2]graph.NodeID{ev.P, ev.Q} {
				if c.reached[v] && c.g.HasNode(v) {
					seeds = append(seeds, v)
				}
			}
		}
		c.spread(seeds)
	}
	c.pending = c.pending[:0]
}

// advance moves the clock to t: the old tick's topology batch is applied
// and spread, arm-tick ever-presence is settled, and the reachability
// window freezes once t passes the answer.
func (c *StreamChecker) advance(t core.Time) {
	if c.armed && !c.everTickDone && t > c.started {
		c.settleArmTick()
	}
	c.flush()
	if c.armed && c.answered && !c.frozen && t > c.ansAt {
		c.frozen = true
		c.pending = nil
	}
	c.curT, c.haveCur = t, true
}

// settleArmTick decides the ever-presence of the entities whose session
// started at the arm tick, once the clock leaves that tick or at Finish:
// one still open has a session outliving the tick (a later leave is past
// started, and a session open at the end closes at end+1), so it was
// present during the window.
func (c *StreamChecker) settleArmTick() {
	for p := range c.everPending {
		if c.plainTr.Open(p) {
			c.everPresent[p] = true
		}
	}
	c.everPending = nil
	c.everTickDone = true
}

// onStable updates stable candidacy from a transition of the bridged
// session machine. Only meaningful once armed.
func (c *StreamChecker) onStable(p graph.NodeID, se core.SessionStep) {
	switch se.Change {
	case core.SessionOpened:
		if se.From <= c.started {
			// A session opening at the arm tick (post-arm events are never
			// earlier) can still cover the window.
			c.cand[p] = true
			delete(c.candDown, p)
		} else if c.cand[p] {
			// The join discarded a suspended interval without an announced
			// return; the session machine forgets that interval too.
			delete(c.cand, p)
			delete(c.candDown, p)
		}
	case core.SessionClosed:
		if !c.cand[p] {
			break
		}
		delete(c.cand, p)
		delete(c.candDown, p)
		if c.answered && se.To > c.ansAt {
			c.confirmed[p] = true
		}
	case core.SessionSuspended:
		if c.cand[p] {
			c.candDown[p] = se.To
		}
	case core.SessionResumed:
		if c.cand[p] {
			delete(c.candDown, p)
		}
	}
}

// onPlain updates ever-presence from a plain-session transition.
func (c *StreamChecker) onPlain(p graph.NodeID, se core.SessionStep) {
	if !c.armed {
		return
	}
	switch se.Change {
	case core.SessionOpened:
		if se.From <= c.started {
			c.everPending[p] = true
		} else if !c.frozen {
			c.everPresent[p] = true
		}
	case core.SessionClosed:
		if se.To <= c.started {
			// The session died within the arm tick: [from, started) misses
			// the window entirely.
			delete(c.everPending, p)
		}
	}
}

// Observe consumes one trace event. Register it with core.Trace.Stream
// before the world's first Record.
func (c *StreamChecker) Observe(ev core.TraceEvent) {
	c.poll()
	if !c.haveCur || ev.At != c.curT {
		c.advance(ev.At)
	}
	switch ev.Kind {
	case core.TJoin, core.TLeave, core.TEdgeUp, core.TEdgeDown:
		if !c.frozen {
			c.pending = append(c.pending, ev)
		}
	case core.TMark:
		switch ev.Tag {
		case node.MarkAuthQuarantine:
			c.quarantined[ev.P] = true
		case core.MarkProvenEquivocator:
			c.proven[ev.P] = true
		case core.MarkEpochSwitch:
			c.epoch[ev.P] = true
		}
	}
	if se := c.stableTr.Observe(&ev); c.armed && se.Change != core.SessionUnchanged {
		c.onStable(ev.P, se)
	}
	if pe := c.plainTr.Observe(&ev); pe.Change != core.SessionUnchanged {
		c.onPlain(ev.P, pe)
	}
}

// Arm binds the checker to a launched run. Call it immediately after
// Protocol.Launch, at simulation time r.Started.
func (c *StreamChecker) Arm(r *Run) {
	c.run, c.querier, c.started = r, r.Querier, r.Started
	if c.haveCur && c.curT < c.started {
		// Pre-window topology still buffered: apply it without spreading,
		// like ReachableFrom's replay before the window opens.
		c.flush()
	}
	c.armed = true
	c.stableTr.Each(func(p graph.NodeID, s core.Session) {
		c.cand[p] = true
		if s.Suspended {
			c.candDown[p] = s.DownAt
		}
	})
	c.plainTr.Each(func(p graph.NodeID, _ core.Session) { c.everPending[p] = true })
	// Initial spread over the graph as of the window's opening (the
	// arm tick's own events are still pending and spread when it ends):
	// seeded from every present reached node, it leaves the reached set
	// closed, which each later flush preserves.
	if c.g.HasNode(c.querier) {
		c.reached[c.querier] = true
	}
	seeds := c.seeds[:0]
	for v := range c.reached {
		if c.g.HasNode(v) {
			seeds = append(seeds, v)
		}
	}
	c.spread(seeds)
}

// sortedIDs renders a set as Outcome's lists read: ascending, and nil —
// not empty — when the set is empty.
func sortedIDs(set map[graph.NodeID]bool) []graph.NodeID {
	if len(set) == 0 {
		return nil
	}
	out := make([]graph.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Finish settles the judgment. end must be the trace's end time
// (Trace.End() after Close); valueOf must be the world's assignment.
func (c *StreamChecker) Finish(end core.Time, valueOf func(graph.NodeID) float64) Outcome {
	c.poll()
	if c.run == nil {
		return Outcome{}
	}
	if c.armed && !c.everTickDone {
		c.settleArmTick()
	}
	c.flush()

	E := end
	var ans *Answer
	if c.answered {
		ans = c.run.Answer()
		E = c.ansAt
	}
	var stable []graph.NodeID
	for p := range c.confirmed {
		stable = append(stable, p)
	}
	for p := range c.cand {
		if down, susp := c.candDown[p]; !susp || down > E {
			stable = append(stable, p)
		}
	}
	sort.Slice(stable, func(i, j int) bool { return stable[i] < stable[j] })

	if ans == nil {
		return Outcome{StableCount: len(stable), QuerierLeft: !c.plainTr.Open(c.querier)}
	}
	out := Outcome{Terminated: true, Duration: c.ansAt - c.started, StableCount: len(stable)}
	out.Quarantined = sortedIDs(c.quarantined)
	out.ProvenEquivocators = sortedIDs(c.proven)
	out.EpochSwitchers = sortedIDs(c.epoch)
	for _, id := range stable {
		if _, ok := ans.Contributors[id]; ok {
			out.CoveredStable++
		} else {
			out.MissedStable = append(out.MissedStable, id)
			if c.reached[id] {
				out.MissedReachableStable = append(out.MissedReachableStable, id)
			}
			if c.quarantined[id] {
				out.MissedQuarantined = append(out.MissedQuarantined, id)
			}
			if c.proven[id] {
				out.MissedProven = append(out.MissedProven, id)
			}
		}
	}
	ids := make([]graph.NodeID, 0, len(ans.Contributors))
	for id := range ans.Contributors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !c.everPresent[id] {
			out.Fabricated = append(out.Fabricated, id)
		} else if valueOf != nil && ans.Contributors[id] != valueOf(id) {
			out.WrongValue = append(out.WrongValue, id)
		}
	}
	return out
}
