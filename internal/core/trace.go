package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Time is virtual time, in the simulator's ticks. It aliases int64 so
// traces can be analyzed without importing the simulation kernel.
type Time = int64

// TraceEventKind discriminates recorded run events.
type TraceEventKind uint8

// Trace event kinds. Join/Leave/EdgeUp/EdgeDown are topology events;
// Send/Deliver/Drop are message events; Mark is protocol-defined.
const (
	TJoin TraceEventKind = iota
	TLeave
	TEdgeUp
	TEdgeDown
	TSend
	TDeliver
	TDrop
	TMark
)

// String returns the event kind name.
func (k TraceEventKind) String() string {
	names := [...]string{"join", "leave", "edge-up", "edge-down", "send", "deliver", "drop", "mark"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("TraceEventKind(%d)", uint8(k))
}

// Mark tags the runtime records for lifecycle transitions the membership
// events alone cannot express: a crash is a Leave preceded by a MarkCrash
// mark, a recovery is a Join preceded by a MarkRecover mark (same tick,
// same entity). SessionsBridgingRecovery keys on exactly this shape.
const (
	MarkCrash   = "crash"
	MarkRecover = "recover"
	// MarkRejoin is recorded when an entity joins under an identity that
	// was present before (an announced Leave followed by a later Join of
	// the same ID). The runtime records it for every such re-arrival, so
	// checkers can tell a returning participant from a first arrival
	// without guessing from ID reuse. SessionsBridgingRejoin keys on it.
	MarkRejoin = "rejoin"
	// MarkProvenEquivocator is recorded at an entity when some receiver
	// establishes transferable PROOF that it equivocated (two of its own
	// signatures over divergent payloads of one broadcast). The audit
	// sublayer emits it; checkers read it through ProvenEquivocators to
	// separate evidence-backed quarantines from mere suspicion.
	MarkProvenEquivocator = "audit.proven"
	// MarkEpochSwitch is recorded at an entity when it commits to a new
	// protocol-stack configuration epoch (the node runtime's live
	// reconfiguration handshake). The core package owns the tag so trace
	// checkers can locate reconfiguration points without importing the
	// runtime; the OTQ judgment itself is epoch-agnostic — a correct
	// reconfiguration changes the stack's parameters, never the answer.
	MarkEpochSwitch = "reconf.switch"
	// MarkPexConverged is recorded (once, at an arbitrary present entity)
	// the first time the PEX membership sublayer's sampler observes the
	// overlay fully connected — the gossip overlay's convergence instant,
	// which the E27 experiments measure against poisoning.
	MarkPexConverged = "pex.converged"
)

// TraceEvent is one recorded occurrence in a run. P is the subject entity;
// Q is the peer for edge and message events (zero otherwise). Tag carries
// the message type or mark label.
type TraceEvent struct {
	At   Time
	Kind TraceEventKind
	P, Q graph.NodeID
	Tag  string
}

// Trace is the ground-truth record of a run: every membership change,
// topology change and message, in order. Specification checkers (e.g. the
// One-Time Query validity checker) work exclusively on traces, so a
// protocol cannot self-certify its answers.
//
// The zero value is an empty, usable trace.
type Trace struct {
	log    eventLog
	end    Time
	closed bool

	// Counters every Record keeps, whatever the retention (churn counts
	// joins and leaves).
	count, churn, cur, peak int
	lastAt, lastTopo        Time

	// Per-tag aggregates every Record keeps, indexed by tag id. Under
	// count-only retention (SetCountOnly) events update them and are then
	// discarded, keeping memory O(tags) instead of O(events). Scale runs
	// at n >= 10k entities use it; the specification checkers need full
	// event retention and must not.
	countOnly bool
	tags      tagTable
	msgAll    MessageStats
	msgByTag  []MessageStats
	firstMark []markTime

	sinks []func(TraceEvent)
}

// Stream registers fn as an event sink: every subsequently recorded event
// is handed to fn at Record time, after validation and before retention
// decides the event's fate. Sinks therefore see the complete stream even
// under count-only retention — the hook that lets incremental consumers
// (e.g. otq.StreamChecker) judge runs whose event logs never materialize.
// Register before the first Record to observe the whole run; sinks must
// not Record into the trace.
func (tr *Trace) Stream(fn func(TraceEvent)) {
	tr.sinks = append(tr.sinks, fn)
}

// SetCountOnly switches the trace to count-only retention: Len,
// Messages, MaxConcurrency, LastTopologyChange, FirstMark and End stay
// exact, every other accessor sees an empty event list. It exists for
// scale experiments whose worlds record tens of millions of events that
// no checker will ever read; judged runs must keep the default full
// retention. Must be called before the first Record.
func (tr *Trace) SetCountOnly(on bool) {
	if tr.count > 0 {
		panic("core: SetCountOnly on a trace that already holds events")
	}
	tr.countOnly = on
}

// markTime is the first time a mark tag was recorded, if it was.
type markTime struct {
	at   Time
	seen bool
}

// Record appends an event. Events must be recorded in non-decreasing time
// order (the simulator guarantees this); out-of-order recording panics.
func (tr *Trace) Record(ev TraceEvent) {
	if tr.closed {
		panic("core: Record on closed trace")
	}
	if tr.count > 0 && ev.At < tr.lastAt {
		panic(fmt.Sprintf("core: trace event at %d after event at %d", ev.At, tr.lastAt))
	}
	for _, fn := range tr.sinks {
		fn(ev)
	}
	tr.count++
	tr.lastAt, tr.end = ev.At, max(tr.end, ev.At)
	switch ev.Kind {
	case TJoin:
		tr.churn++
		tr.cur++
		tr.peak = max(tr.peak, tr.cur)
	case TLeave:
		tr.churn++
		tr.cur--
	}
	if int(ev.Kind) < len(temporalKind) {
		tr.lastTopo = max(tr.lastTopo, ev.At)
	}
	tag := tr.tags.id(ev.Tag)
	switch ev.Kind {
	case TSend, TDeliver, TDrop:
		if int(tag) >= len(tr.msgByTag) {
			tr.msgByTag = append(tr.msgByTag, make([]MessageStats, int(tag)+1-len(tr.msgByTag))...)
		}
		tr.countMessage(&tr.msgAll, ev.Kind)
		tr.countMessage(&tr.msgByTag[tag], ev.Kind)
	case TMark:
		if int(tag) >= len(tr.firstMark) {
			tr.firstMark = append(tr.firstMark, make([]markTime, int(tag)+1-len(tr.firstMark))...)
		}
		if m := &tr.firstMark[tag]; !m.seen {
			*m = markTime{at: ev.At, seen: true}
		}
	}
	if !tr.countOnly {
		tr.log.append(&ev, tag)
	}
}

func (tr *Trace) countMessage(s *MessageStats, kind TraceEventKind) {
	switch kind {
	case TSend:
		s.Sent++
	case TDeliver:
		s.Delivered++
	case TDrop:
		s.Dropped++
	}
}

// Join records entity p joining at time t.
func (tr *Trace) Join(t Time, p graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TJoin, P: p})
}

// Leave records entity p leaving at time t.
func (tr *Trace) Leave(t Time, p graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TLeave, P: p})
}

// EdgeUp records link {p, q} appearing at time t.
func (tr *Trace) EdgeUp(t Time, p, q graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TEdgeUp, P: p, Q: q})
}

// EdgeDown records link {p, q} disappearing at time t.
func (tr *Trace) EdgeDown(t Time, p, q graph.NodeID) {
	tr.Record(TraceEvent{At: t, Kind: TEdgeDown, P: p, Q: q})
}

// Send records p sending a tag-message to q at time t.
func (tr *Trace) Send(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TSend, P: p, Q: q, Tag: tag})
}

// Deliver records q's tag-message being delivered to p at time t.
func (tr *Trace) Deliver(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TDeliver, P: p, Q: q, Tag: tag})
}

// Drop records a tag-message from p to q being lost at time t.
func (tr *Trace) Drop(t Time, p, q graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TDrop, P: p, Q: q, Tag: tag})
}

// Mark records a protocol-defined event labeled tag at entity p.
func (tr *Trace) Mark(t Time, p graph.NodeID, tag string) {
	tr.Record(TraceEvent{At: t, Kind: TMark, P: p, Tag: tag})
}

// Close fixes the trace's end time. Recording after Close panics.
func (tr *Trace) Close(t Time) {
	if t > tr.end {
		tr.end = t
	}
	tr.closed = true
}

// End returns the trace's end time: the Close time if closed, otherwise
// the time of the last event.
func (tr *Trace) End() Time { return tr.end }

// Len returns the number of recorded events (including discarded ones
// under count-only retention).
func (tr *Trace) Len() int { return tr.count }

// Events returns a copy of the recorded events. Readers that only walk
// the log use Replay, which builds no list.
func (tr *Trace) Events() []TraceEvent {
	out := make([]TraceEvent, 0, tr.log.n)
	tr.Replay(func(ev TraceEvent) { out = append(out, ev) })
	return out
}

// Replay feeds every recorded event, in record order, to sink — a sink
// of the kind Stream registers, so a stream judge replays a retained
// trace exactly as it would have judged the run live. Each event is
// decoded and passed by value, so the walk stores nothing per event and
// a sink's copy of it is a copy of registers. sink must not Record into
// the trace. Under count-only retention it feeds nothing.
func (tr *Trace) Replay(sink func(TraceEvent)) {
	names := tr.tags.list()
	var cur logCursor
	for at, span := tr.log.next(&cur); len(span) > 0; at, span = tr.log.next(&cur) {
		for i := range span {
			r := &span[i]
			sink(TraceEvent{At: at, Kind: r.kind, P: r.P, Q: r.Q, Tag: names[r.tag]})
		}
	}
}

// Interval is a half-open presence interval [From, To). To is the trace
// end for sessions still open at the end of the run.
type Interval struct {
	From, To Time
}

// Covers reports whether the interval contains [t1, t2] entirely.
func (iv Interval) Covers(t1, t2 Time) bool { return iv.From <= t1 && t2 < iv.To }

// sessions replays the event log through a SessionMachine under the
// given bridging. Per entity the intervals come out in time order; a
// session still open at the end runs to End()+1, and one still suspended
// ends when it went silent.
func (tr *Trace) sessions(b Bridging) map[graph.NodeID][]Interval {
	m := NewSessionMachine(b)
	out := make(map[graph.NodeID][]Interval)
	tr.Replay(func(ev TraceEvent) {
		if st := m.Observe(&ev); st.Change == SessionClosed {
			out[ev.P] = append(out[ev.P], Interval{From: st.From, To: st.To})
		}
	})
	m.Each(func(p graph.NodeID, s Session) {
		to := tr.end + 1
		if s.Suspended {
			to = s.DownAt
		}
		out[p] = append(out[p], Interval{From: s.From, To: to})
	})
	return out
}

// members is the one interval query over plain sessions: the entities,
// ascending, with a session that contains [t1, t2] entirely (whole) or
// meets it at all.
func (tr *Trace) members(t1, t2 Time, whole bool) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			match := iv.From <= t2 && t1 < iv.To
			if whole {
				match = iv.Covers(t1, t2)
			}
			if match {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sessions returns, per entity, its presence intervals in time order.
// A session open at the end of the trace is closed at End()+1 so that
// Covers(t, End()) holds for entities present to the very end.
func (tr *Trace) Sessions() map[graph.NodeID][]Interval { return tr.sessions(BridgeNone) }

// SessionsBridgingRecovery returns presence intervals like Sessions, but
// with crash–recovery gaps bridged: a session that ended in a crash
// (MarkCrash + Leave) and resumed in a recovery of the same entity
// (MarkRecover + Join) is reported as ONE interval spanning the gap. The
// reading: a crash–recovery entity's state survived on stable storage, so
// for participation accounting it never stopped being a member — it was
// merely silent for a while, like a process behind a transient partition.
// A crash that never recovers closes its interval at the crash, exactly
// like a leave.
func (tr *Trace) SessionsBridgingRecovery() map[graph.NodeID][]Interval {
	return tr.sessions(BridgeRecovery)
}

// SessionsBridgingRejoin returns presence intervals with BOTH kinds of
// announced-return gaps bridged: crash–recovery gaps (as in
// SessionsBridgingRecovery) and leave–rejoin gaps — a session that ended
// in a plain Leave and resumed in a Join of the same identity flanked by
// a MarkRejoin mark is reported as ONE interval spanning the downtime.
// This is the participation notion for durable identities: an entity
// whose security state persists across departures never stopped being
// the same principal, it was merely absent for a while. A departure that
// never returns closes its interval at the leave, exactly like Sessions.
func (tr *Trace) SessionsBridgingRejoin() map[graph.NodeID][]Interval {
	return tr.sessions(BridgeRejoin)
}

// subjects returns the distinct subject entities of the events match
// accepts, ascending.
func (tr *Trace) subjects(match func(ev *TraceEvent) bool) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	tr.Replay(func(ev TraceEvent) {
		if match(&ev) && !seen[ev.P] {
			seen[ev.P] = true
			out = append(out, ev.P)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entities returns every entity that ever joined, in ascending order.
func (tr *Trace) Entities() []graph.NodeID {
	return tr.subjects(func(ev *TraceEvent) bool { return ev.Kind == TJoin })
}

// PresentAt returns the entities present at time t, ascending.
func (tr *Trace) PresentAt(t Time) []graph.NodeID { return tr.members(t, t, true) }

// MaxConcurrency returns the maximum number of simultaneously present
// entities over the run — the observed concurrency level that places the
// run within an infinite arrival model.
func (tr *Trace) MaxConcurrency() int { return tr.peak }

// StableBetween returns the entities present during the whole closed
// interval [t1, t2]: exactly the processes whose values a valid One-Time
// Query issued over that interval must account for.
func (tr *Trace) StableBetween(t1, t2 Time) []graph.NodeID {
	return tr.members(t1, t2, true)
}

// EverPresentBetween returns the entities present at any point of
// [t1, t2]: the only processes whose values may legitimately appear in a
// One-Time Query answer over that interval.
func (tr *Trace) EverPresentBetween(t1, t2 Time) []graph.NodeID {
	return tr.members(t1, t2, false)
}

// temporalKind maps the topology kinds of trace events onto the evolving
// graph's event kinds; message and mark kinds lie beyond it.
var temporalKind = [...]graph.EventKind{
	TJoin: graph.NodeJoin, TLeave: graph.NodeLeave, TEdgeUp: graph.EdgeUp, TEdgeDown: graph.EdgeDown,
}

// Temporal converts the trace's topology events into an evolving graph.
func (tr *Trace) Temporal() *graph.Temporal {
	tg := graph.NewTemporal()
	tr.Replay(func(ev TraceEvent) {
		if int(ev.Kind) < len(temporalKind) {
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: temporalKind[ev.Kind], U: ev.P, V: ev.Q})
		}
	})
	return tg
}

// TickGraph is the live graph G(t) of a trace stream, a tick behind the
// clock: a tick's topology events are buffered and applied together when
// the clock leaves it (or at Flush), so between ticks the graph is the
// stable period Temporal.Replay visits, and mid-tick it is still the
// graph before the tick. The zero value is an empty graph.
type TickGraph struct {
	g       *graph.Graph
	pending []TopoChange
	at      Time
	begun   bool
}

// TopoChange is one buffered topology event: a join, leave, edge up or
// edge down. It holds no pointer, so a tick's batch is a flat array the
// collector need not scan.
type TopoChange struct {
	Kind TraceEventKind
	P, Q graph.NodeID
}

// Graph returns the graph as of the last applied batch, for reading.
func (tg *TickGraph) Graph() *graph.Graph {
	if tg.g == nil {
		tg.g = graph.New()
	}
	return tg.g
}

// Advance moves the clock to t. When t leaves the current tick (the
// first call always does), moved is true and that tick's batch is
// applied and returned with its tick.
func (tg *TickGraph) Advance(t Time) (at Time, batch []TopoChange, moved bool) {
	if moved = !tg.begun || t != tg.at; moved {
		at, batch = tg.Flush()
		tg.at, tg.begun = t, true
	}
	return at, batch, moved
}

// Buffer adds a topology event of the current tick to its batch.
func (tg *TickGraph) Buffer(ev TraceEvent) {
	tg.pending = append(tg.pending, TopoChange{Kind: ev.Kind, P: ev.P, Q: ev.Q})
}

// Flush applies the buffered batch now and returns it with its tick. The
// batch aliases the buffer: read it before the next Buffer.
func (tg *TickGraph) Flush() (Time, []TopoChange) {
	g, batch := tg.Graph(), tg.pending
	for _, ev := range batch {
		switch ev.Kind {
		case TJoin:
			g.AddNode(ev.P)
		case TLeave:
			g.RemoveNode(ev.P)
		case TEdgeUp:
			g.AddEdge(ev.P, ev.Q)
		case TEdgeDown:
			g.RemoveEdge(ev.P, ev.Q)
		}
	}
	tg.pending = batch[:0]
	return tg.at, batch
}

// LastTopologyChange returns the time of the last join/leave/edge event,
// or 0 if there is none.
func (tr *Trace) LastTopologyChange() Time { return tr.lastTopo }

// SessionStats summarizes membership dynamics: how many sessions the run
// saw, how long they lasted, and the implied churn intensity.
type SessionStats struct {
	// Sessions is the total number of presence intervals.
	Sessions int
	// Completed counts sessions that ended before the trace did.
	Completed int
	// MeanLength and MaxLength are over COMPLETED sessions (open sessions
	// have no length yet); both 0 when nothing completed.
	MeanLength float64
	MaxLength  Time
	// EventsPerTick is (joins+leaves)/duration: the churn intensity.
	EventsPerTick float64
}

// SessionStatistics computes SessionStats from the trace.
func (tr *Trace) SessionStatistics() SessionStats {
	var st SessionStats
	var sum Time
	for _, ivs := range tr.Sessions() {
		for _, iv := range ivs {
			st.Sessions++
			if iv.To <= tr.end { // closed before the run ended
				st.Completed++
				length := iv.To - iv.From
				sum += length
				if length > st.MaxLength {
					st.MaxLength = length
				}
			}
		}
	}
	if st.Completed > 0 {
		st.MeanLength = float64(sum) / float64(st.Completed)
	}
	if tr.end > 0 {
		st.EventsPerTick = float64(tr.churn) / float64(tr.end)
	}
	return st
}

// MessageStats summarizes message events in the trace.
type MessageStats struct {
	Sent, Delivered, Dropped int
}

// Messages counts message events, optionally filtered by tag ("" = all).
func (tr *Trace) Messages(tag string) MessageStats {
	if tag == "" {
		return tr.msgAll
	}
	if id, ok := tr.tags.lookup(tag); ok && int(id) < len(tr.msgByTag) {
		return tr.msgByTag[id]
	}
	return MessageStats{}
}

// MarkedEntities returns the distinct entities carrying a mark with the
// given tag, ascending. Checkers use it to collect runtime verdicts the
// sublayers record (e.g. quarantined neighbors) without knowing their
// internals.
func (tr *Trace) MarkedEntities(tag string) []graph.NodeID {
	return tr.subjects(func(ev *TraceEvent) bool { return ev.Kind == TMark && ev.Tag == tag })
}

// ProvenEquivocators returns the entities marked MarkProvenEquivocator —
// those some receiver holds signature-backed equivocation proof against —
// ascending. Unlike quarantine marks (which a forger can direct at a
// scapegoat), an entity appears here only if its own key signed two
// divergent payloads under one broadcast number.
func (tr *Trace) ProvenEquivocators() []graph.NodeID {
	return tr.MarkedEntities(MarkProvenEquivocator)
}

// FirstMark returns the time of the earliest mark with the given tag, and
// whether one exists — e.g. the detection latency of an injected fault,
// measured from the injection window's start.
func (tr *Trace) FirstMark(tag string) (Time, bool) {
	if id, ok := tr.tags.lookup(tag); ok && int(id) < len(tr.firstMark) {
		m := tr.firstMark[id]
		return m.at, m.seen
	}
	return 0, false
}
