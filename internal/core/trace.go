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
	events []TraceEvent
	end    Time
	closed bool

	// Count-only retention (SetCountOnly): events update the aggregate
	// counters below and are then discarded, keeping memory O(tags)
	// instead of O(events). Scale runs at n >= 10k entities use it; the
	// specification checkers need full event retention and must not.
	countOnly bool
	count     int
	lastAt    Time
	msgAll    MessageStats
	msgByTag  map[string]*MessageStats
	cur, peak int
	firstMark map[string]Time

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
// Messages, MaxConcurrency, FirstMark and End stay exact, every other
// accessor sees an empty event list. It exists for scale experiments
// whose worlds record tens of millions of events that no checker will
// ever read; judged runs must keep the default full retention. Must be
// called before the first Record.
func (tr *Trace) SetCountOnly(on bool) {
	if len(tr.events) > 0 || tr.count > 0 {
		panic("core: SetCountOnly on a trace that already holds events")
	}
	tr.countOnly = on
	if on {
		tr.msgByTag = make(map[string]*MessageStats)
		tr.firstMark = make(map[string]Time)
	}
}

// Record appends an event. Events must be recorded in non-decreasing time
// order (the simulator guarantees this); out-of-order recording panics.
func (tr *Trace) Record(ev TraceEvent) {
	if tr.closed {
		panic("core: Record on closed trace")
	}
	if tr.countOnly {
		if tr.count > 0 && ev.At < tr.lastAt {
			panic(fmt.Sprintf("core: trace event at %d after event at %d", ev.At, tr.lastAt))
		}
		for _, fn := range tr.sinks {
			fn(ev)
		}
		tr.count++
		tr.lastAt = ev.At
		if ev.At > tr.end {
			tr.end = ev.At
		}
		switch ev.Kind {
		case TJoin:
			tr.cur++
			if tr.cur > tr.peak {
				tr.peak = tr.cur
			}
		case TLeave:
			tr.cur--
		case TSend, TDeliver, TDrop:
			tr.countMessage(&tr.msgAll, ev.Kind)
			s := tr.msgByTag[ev.Tag]
			if s == nil {
				s = &MessageStats{}
				tr.msgByTag[ev.Tag] = s
			}
			tr.countMessage(s, ev.Kind)
		case TMark:
			if _, seen := tr.firstMark[ev.Tag]; !seen {
				tr.firstMark[ev.Tag] = ev.At
			}
		}
		return
	}
	if n := len(tr.events); n > 0 && ev.At < tr.events[n-1].At {
		panic(fmt.Sprintf("core: trace event at %d after event at %d", ev.At, tr.events[n-1].At))
	}
	for _, fn := range tr.sinks {
		fn(ev)
	}
	tr.events = append(tr.events, ev)
	if ev.At > tr.end {
		tr.end = ev.At
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
func (tr *Trace) Len() int {
	if tr.countOnly {
		return tr.count
	}
	return len(tr.events)
}

// Events returns a copy of the recorded events.
func (tr *Trace) Events() []TraceEvent {
	out := make([]TraceEvent, len(tr.events))
	copy(out, tr.events)
	return out
}

// EventsSince returns a copy of the events recorded from index start on
// (incremental consumers keep a cursor instead of re-copying the whole
// trace). A start beyond the log returns nil.
func (tr *Trace) EventsSince(start int) []TraceEvent {
	if start < 0 {
		start = 0
	}
	if start >= len(tr.events) {
		return nil
	}
	out := make([]TraceEvent, len(tr.events)-start)
	copy(out, tr.events[start:])
	return out
}

// Interval is a half-open presence interval [From, To). To is the trace
// end for sessions still open at the end of the run.
type Interval struct {
	From, To Time
}

// Covers reports whether the interval contains [t1, t2] entirely.
func (iv Interval) Covers(t1, t2 Time) bool { return iv.From <= t1 && t2 < iv.To }

// bridging selects which downtime gaps the session reconstruction closes:
// which departures merely suspend a session, and which marks announce the
// return that resumes it.
type bridging uint8

const (
	bridgeNone     bridging = iota // every Leave ends the session
	bridgeRecovery                 // MarkCrash+Leave suspends, MarkRecover+Join resumes
	bridgeRejoin                   // every Leave suspends, MarkRecover or MarkRejoin + Join resumes
)

// sessions is the one reconstruction of presence intervals from the event
// log; Sessions, SessionsBridgingRecovery and SessionsBridgingRejoin name
// its three bridging notions. Per entity the intervals come out in time
// order. Two quirks are shared with otq's stream checker and pinned by
// tests, not fixed here: a Join that no mark announced DISCARDS the
// suspended interval it follows (the earlier presence vanishes from the
// bridged accounting), and a Leave of an entity with no open session is
// ignored without consuming its pending crash mark.
func (tr *Trace) sessions(b bridging) map[graph.NodeID][]Interval {
	type state struct {
		open, suspended     bool
		from, leftAt        Time // session start; when the suspended session left
		crashing, returning bool // a crash / return mark awaits its Leave / Join
	}
	states := make(map[graph.NodeID]*state)
	out := make(map[graph.NodeID][]Interval)
	for i := range tr.events {
		ev := &tr.events[i]
		crash := ev.Kind == TMark && ev.Tag == MarkCrash
		returns := ev.Kind == TMark && (ev.Tag == MarkRecover || (ev.Tag == MarkRejoin && b == bridgeRejoin))
		if ev.Kind != TJoin && ev.Kind != TLeave && !crash && !returns {
			continue
		}
		st := states[ev.P]
		if st == nil {
			st = &state{}
			states[ev.P] = st
		}
		switch {
		case crash:
			st.crashing = true
		case returns:
			st.returning = true
		case ev.Kind == TJoin && !st.open:
			if !(st.suspended && st.returning) {
				st.from = ev.At
			}
			st.open, st.suspended, st.returning = true, false, false
		case ev.Kind == TLeave && st.open:
			st.open, st.leftAt = false, ev.At
			st.suspended = b == bridgeRejoin || (b == bridgeRecovery && st.crashing)
			st.crashing = false
			if !st.suspended {
				out[ev.P] = append(out[ev.P], Interval{From: st.from, To: ev.At})
			}
		}
	}
	for p, st := range states {
		switch {
		case st.open:
			out[p] = append(out[p], Interval{From: st.from, To: tr.end + 1})
		case st.suspended:
			// Suspended and never came back: the session ended when it left.
			out[p] = append(out[p], Interval{From: st.from, To: st.leftAt})
		}
	}
	return out
}

// members is the one interval query over reconstructed sessions: the
// entities, ascending, with a session that contains [t1, t2] entirely
// (whole) or meets it at all.
func (tr *Trace) members(b bridging, t1, t2 Time, whole bool) []graph.NodeID {
	var out []graph.NodeID
	for p, ivs := range tr.sessions(b) {
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
func (tr *Trace) Sessions() map[graph.NodeID][]Interval { return tr.sessions(bridgeNone) }

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
	return tr.sessions(bridgeRecovery)
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
	return tr.sessions(bridgeRejoin)
}

// StableBetweenRejoinBridged is StableBetween computed over rejoin-bridged
// sessions (SessionsBridgingRejoin): a durable identity whose bridged
// presence covers [t1, t2] counts as a stable participant even while it
// was between sessions. This is the accounting a churn-storm experiment
// holds a protocol to when identities persist across join/leave cycles.
func (tr *Trace) StableBetweenRejoinBridged(t1, t2 Time) []graph.NodeID {
	return tr.members(bridgeRejoin, t1, t2, true)
}

// StableBetweenBridged is StableBetween computed over recovery-bridged
// sessions: a crash–recovery entity whose (bridged) presence covers
// [t1, t2] counts as a stable participant even if it was silent for part
// of the interval. This is the participation notion a robustness
// experiment holds a protocol to when entities may crash and come back
// with their state intact.
func (tr *Trace) StableBetweenBridged(t1, t2 Time) []graph.NodeID {
	return tr.members(bridgeRecovery, t1, t2, true)
}

// subjects returns the distinct subject entities of the events match
// accepts, ascending.
func (tr *Trace) subjects(match func(ev *TraceEvent) bool) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for i := range tr.events {
		if ev := &tr.events[i]; match(ev) && !seen[ev.P] {
			seen[ev.P] = true
			out = append(out, ev.P)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Entities returns every entity that ever joined, in ascending order.
func (tr *Trace) Entities() []graph.NodeID {
	return tr.subjects(func(ev *TraceEvent) bool { return ev.Kind == TJoin })
}

// PresentAt returns the entities present at time t, ascending.
func (tr *Trace) PresentAt(t Time) []graph.NodeID { return tr.members(bridgeNone, t, t, true) }

// MaxConcurrency returns the maximum number of simultaneously present
// entities over the run — the observed concurrency level that places the
// run within an infinite arrival model.
func (tr *Trace) MaxConcurrency() int {
	if tr.countOnly {
		return tr.peak
	}
	cur, max := 0, 0
	for _, ev := range tr.events {
		switch ev.Kind {
		case TJoin:
			cur++
			if cur > max {
				max = cur
			}
		case TLeave:
			cur--
		}
	}
	return max
}

// StableBetween returns the entities present during the whole closed
// interval [t1, t2]: exactly the processes whose values a valid One-Time
// Query issued over that interval must account for.
func (tr *Trace) StableBetween(t1, t2 Time) []graph.NodeID {
	return tr.members(bridgeNone, t1, t2, true)
}

// EverPresentBetween returns the entities present at any point of
// [t1, t2]: the only processes whose values may legitimately appear in a
// One-Time Query answer over that interval.
func (tr *Trace) EverPresentBetween(t1, t2 Time) []graph.NodeID {
	return tr.members(bridgeNone, t1, t2, false)
}

// temporalKind maps the topology kinds of trace events onto the evolving
// graph's event kinds; message and mark kinds lie beyond it.
var temporalKind = [...]graph.EventKind{
	TJoin: graph.NodeJoin, TLeave: graph.NodeLeave, TEdgeUp: graph.EdgeUp, TEdgeDown: graph.EdgeDown,
}

// Temporal converts the trace's topology events into an evolving graph.
func (tr *Trace) Temporal() *graph.Temporal {
	tg := graph.NewTemporal()
	for i := range tr.events {
		if ev := &tr.events[i]; int(ev.Kind) < len(temporalKind) {
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: temporalKind[ev.Kind], U: ev.P, V: ev.Q})
		}
	}
	return tg
}

// LastTopologyChange returns the time of the last join/leave/edge event,
// or 0 if there is none.
func (tr *Trace) LastTopologyChange() Time {
	last := Time(0)
	for i := range tr.events {
		if ev := &tr.events[i]; int(ev.Kind) < len(temporalKind) && ev.At > last {
			last = ev.At
		}
	}
	return last
}

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
	events := 0
	for _, ev := range tr.events {
		if ev.Kind == TJoin || ev.Kind == TLeave {
			events++
		}
	}
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
		st.EventsPerTick = float64(events) / float64(tr.end)
	}
	return st
}

// MessageStats summarizes message events in the trace.
type MessageStats struct {
	Sent, Delivered, Dropped int
}

// Messages counts message events, optionally filtered by tag ("" = all).
func (tr *Trace) Messages(tag string) MessageStats {
	if tr.countOnly {
		if tag == "" {
			return tr.msgAll
		}
		if s := tr.msgByTag[tag]; s != nil {
			return *s
		}
		return MessageStats{}
	}
	var ms MessageStats
	for _, ev := range tr.events {
		if tag != "" && ev.Tag != tag {
			continue
		}
		tr.countMessage(&ms, ev.Kind)
	}
	return ms
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
	if tr.countOnly {
		at, ok := tr.firstMark[tag]
		return at, ok
	}
	for _, ev := range tr.events {
		if ev.Kind == TMark && ev.Tag == tag {
			return ev.At, true
		}
	}
	return 0, false
}
