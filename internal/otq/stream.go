package otq

import (
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
)

// This file implements the streaming OTQ checker: the batch CheckWith
// judgment recomputed incrementally from the event stream, retaining
// state proportional to live sessions and window participants instead of
// to the recorded event count. The differential tests in this package and
// in internal/exp pin its verdicts bit-for-bit against CheckWith; any
// divergence is a bug here, not a new participation notion.

// sessMode selects which batch session reconstruction a streamSessions
// machine mirrors.
type sessMode int

const (
	sessPlain    sessMode = iota // core.Trace.Sessions
	sessRecovery                 // core.Trace.SessionsBridgingRecovery
	sessRejoin                   // core.Trace.SessionsBridgingRejoin
)

// sessEvent kinds: the transition one trace event caused in a session
// machine.
const (
	sessNone      = iota
	sessOpened    // a fresh session opened at `from`
	sessClosed    // a session closed definitively: interval [from, to)
	sessSuspended // a bridged session went silent at `to`; it may resume
	sessResumed   // a suspended session resumed, keeping its original `from`
)

type sessEvent struct {
	kind     int
	from, to core.Time
}

// streamSessions replays one of the trace's session reconstructions
// incrementally. It holds only open and suspended sessions — the batch
// functions' loop state — never the emitted intervals.
type streamSessions struct {
	mode          sessMode
	open          map[graph.NodeID]core.Time // session start, per open entity
	suspended     map[graph.NodeID]core.Time // session start, per silent entity
	lastDownAt    map[graph.NodeID]core.Time // when a suspended entity went silent
	pendingCrash  map[graph.NodeID]bool
	pendingReturn map[graph.NodeID]bool
}

func newStreamSessions(mode sessMode) *streamSessions {
	return &streamSessions{
		mode:          mode,
		open:          map[graph.NodeID]core.Time{},
		suspended:     map[graph.NodeID]core.Time{},
		lastDownAt:    map[graph.NodeID]core.Time{},
		pendingCrash:  map[graph.NodeID]bool{},
		pendingReturn: map[graph.NodeID]bool{},
	}
}

// observe advances the machine by one event and reports the transition it
// caused. The branch structure tracks the batch reconstructions exactly,
// including their quirks: a join without an announced return DISCARDS a
// suspended interval, and a leave while closed is ignored.
func (s *streamSessions) observe(ev core.TraceEvent) sessEvent {
	switch ev.Kind {
	case core.TMark:
		switch s.mode {
		case sessRecovery:
			switch ev.Tag {
			case core.MarkCrash:
				s.pendingCrash[ev.P] = true
			case core.MarkRecover:
				s.pendingReturn[ev.P] = true
			}
		case sessRejoin:
			if ev.Tag == core.MarkRecover || ev.Tag == core.MarkRejoin {
				s.pendingReturn[ev.P] = true
			}
		}
	case core.TJoin:
		if _, isOpen := s.open[ev.P]; isOpen {
			break
		}
		if s.mode == sessPlain {
			s.open[ev.P] = ev.At
			return sessEvent{kind: sessOpened, from: ev.At}
		}
		if from, was := s.suspended[ev.P]; was && s.pendingReturn[ev.P] {
			s.open[ev.P] = from
			delete(s.suspended, ev.P)
			delete(s.pendingReturn, ev.P)
			return sessEvent{kind: sessResumed, from: from}
		}
		delete(s.suspended, ev.P)
		delete(s.pendingReturn, ev.P)
		s.open[ev.P] = ev.At
		return sessEvent{kind: sessOpened, from: ev.At}
	case core.TLeave:
		from, isOpen := s.open[ev.P]
		if !isOpen {
			break
		}
		delete(s.open, ev.P)
		switch s.mode {
		case sessPlain:
			return sessEvent{kind: sessClosed, from: from, to: ev.At}
		case sessRecovery:
			if !s.pendingCrash[ev.P] {
				return sessEvent{kind: sessClosed, from: from, to: ev.At}
			}
			delete(s.pendingCrash, ev.P)
		}
		s.suspended[ev.P] = from
		s.lastDownAt[ev.P] = ev.At
		return sessEvent{kind: sessSuspended, from: from, to: ev.At}
	}
	return sessEvent{}
}

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
	opts CheckOptions

	// Session machines: stable participation under the selected bridging
	// notion, plus plain sessions — ever-presence and querier presence are
	// always judged over plain sessions, whatever the bridging.
	stableTr *streamSessions
	plainTr  *streamSessions

	// Live overlay graph plus the still-unapplied batch of topology
	// events sharing the current timestamp. The batch checker applies all
	// events of one tick before spreading reachability; buffering one
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

	// Run-wide mark sets (the batch checker collects them over the whole
	// trace, not just the query window).
	quarantined map[graph.NodeID]bool
	proven      map[graph.NodeID]bool
	epoch       map[graph.NodeID]bool
}

// NewStreamChecker returns a checker judging with the given participation
// notion (the CheckOptions CheckWith takes).
func NewStreamChecker(opts CheckOptions) *StreamChecker {
	mode := sessPlain
	if opts.BridgeRecoveries {
		mode = sessRecovery
	}
	if opts.BridgeRejoins {
		mode = sessRejoin
	}
	return &StreamChecker{
		opts:        opts,
		stableTr:    newStreamSessions(mode),
		plainTr:     newStreamSessions(sessPlain),
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

// spread replicates the batch ReachableFrom propagation step
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
		// Entities open when the clock leaves the arm tick have sessions
		// outliving it (any future leave is at >= t > started), so they
		// were present during the window.
		for p := range c.everPending {
			if _, open := c.plainTr.open[p]; open {
				c.everPresent[p] = true
			}
		}
		c.everPending = map[graph.NodeID]bool{}
		c.everTickDone = true
	}
	c.flush()
	if c.armed && c.answered && !c.frozen && t > c.ansAt {
		c.frozen = true
		c.pending = nil
	}
	c.curT, c.haveCur = t, true
}

// onStable updates stable candidacy from a transition of the bridged
// session machine. Only meaningful once armed.
func (c *StreamChecker) onStable(p graph.NodeID, se sessEvent) {
	switch se.kind {
	case sessOpened:
		if se.from <= c.started {
			// A session opening at the arm tick (post-arm events are never
			// earlier) can still cover the window.
			c.cand[p] = true
			delete(c.candDown, p)
		} else if c.cand[p] {
			// The join discarded a suspended interval without an announced
			// return; the batch reconstruction forgets that interval too.
			delete(c.cand, p)
			delete(c.candDown, p)
		}
	case sessClosed:
		if !c.cand[p] {
			break
		}
		delete(c.cand, p)
		delete(c.candDown, p)
		if c.answered && se.to > c.ansAt {
			c.confirmed[p] = true
		}
	case sessSuspended:
		if c.cand[p] {
			c.candDown[p] = se.to
		}
	case sessResumed:
		if c.cand[p] {
			delete(c.candDown, p)
		}
	}
}

// onPlain updates ever-presence from a plain-session transition.
func (c *StreamChecker) onPlain(p graph.NodeID, se sessEvent) {
	if !c.armed {
		return
	}
	switch se.kind {
	case sessOpened:
		if se.from <= c.started {
			c.everPending[p] = true
		} else if !c.frozen {
			c.everPresent[p] = true
		}
	case sessClosed:
		if se.to <= c.started {
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
	se := c.stableTr.observe(ev)
	if c.armed && se.kind != sessNone {
		c.onStable(ev.P, se)
	}
	pe := c.plainTr.observe(ev)
	if pe.kind != sessNone {
		c.onPlain(ev.P, pe)
	}
}

// Arm binds the checker to a launched run. Call it immediately after
// Protocol.Launch, at simulation time r.Started.
func (c *StreamChecker) Arm(r *Run) {
	c.run, c.querier, c.started = r, r.Querier, r.Started
	if c.haveCur && c.curT < c.started {
		// Pre-window topology still buffered: apply it without spreading,
		// like the batch checker's pre-start replay.
		c.flush()
	}
	c.armed = true
	for p := range c.stableTr.open {
		c.cand[p] = true
	}
	for p := range c.stableTr.suspended {
		c.cand[p] = true
		c.candDown[p] = c.stableTr.lastDownAt[p]
	}
	for p := range c.plainTr.open {
		c.everPending[p] = true
	}
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

// sortedIDs renders a set exactly like the batch checker's accumulating
// loops: ascending, and nil — not empty — when the set is empty.
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
// The Outcome is bit-identical to CheckWith over the full trace.
func (c *StreamChecker) Finish(end core.Time, valueOf func(graph.NodeID) float64) Outcome {
	c.poll()
	if c.run == nil {
		return Outcome{}
	}
	if c.armed && !c.everTickDone {
		// The clock never left the arm tick (or nothing was recorded
		// after it): sessions still open close at end+1 > started.
		for p := range c.everPending {
			if _, open := c.plainTr.open[p]; open {
				c.everPresent[p] = true
			}
		}
		c.everTickDone = true
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
		if down, susp := c.candDown[p]; susp {
			if down > E {
				stable = append(stable, p)
			}
		} else {
			stable = append(stable, p)
		}
	}
	sort.Slice(stable, func(i, j int) bool { return stable[i] < stable[j] })

	if ans == nil {
		out := Outcome{StableCount: len(stable)}
		if _, present := c.plainTr.open[c.querier]; !present {
			out.QuerierLeft = true
		}
		return out
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
