package core

import "repro/internal/graph"

// Bridging selects which downtime gaps the session reconstruction closes:
// which departures merely suspend a session, and which marks announce the
// return that resumes it.
type Bridging uint8

// The three participation notions, read by Sessions,
// SessionsBridgingRecovery and SessionsBridgingRejoin.
const (
	BridgeNone     Bridging = iota // every Leave ends the session
	BridgeRecovery                 // MarkCrash+Leave suspends, MarkRecover+Join resumes
	BridgeRejoin                   // every Leave suspends, MarkRecover or MarkRejoin + Join resumes
)

// SessionChange names the transition one event caused in a SessionMachine.
type SessionChange uint8

const (
	SessionUnchanged SessionChange = iota
	SessionOpened                  // a fresh session opened at From
	SessionClosed                  // a session ended for good: the interval [From, To)
	SessionSuspended               // a bridged session went silent at To; it may resume
	SessionResumed                 // a suspended session came back, keeping its From
)

// SessionStep is the transition one event caused and the bounds of the
// session it touched.
type SessionStep struct {
	Change   SessionChange
	From, To Time
}

// Session is an entity's live session: open since From or, when
// Suspended, silent since DownAt.
type Session struct {
	From, DownAt Time
	Suspended    bool
}

type sessionState struct {
	Session
	open                bool
	crashing, returning bool // a crash / return mark awaits its Leave / Join
}

// SessionMachine is the one reconstruction of presence intervals from
// the event stream, fed one event at a time: Sessions and its bridged
// variants replay the log through it, and otq's StreamChecker drives it
// live. It holds the open and suspended sessions and the lifecycle marks
// still waiting for their Leave or Join, never the intervals it emitted.
//
// Two quirks are pinned by tests, not fixed here: a Join that no mark
// announced DISCARDS the suspended interval it follows (the earlier
// presence vanishes from the bridged accounting), and a Leave of an
// entity with no open session is ignored without consuming its pending
// crash mark.
type SessionMachine struct {
	bridging Bridging
	states   graph.Table[sessionState]
}

// NewSessionMachine returns a machine that has seen no event.
func NewSessionMachine(b Bridging) *SessionMachine { return &SessionMachine{bridging: b} }

// Observe advances the machine by one event and reports the transition
// it caused. Only joins, leaves and the marks the bridging reads change
// anything.
func (m *SessionMachine) Observe(ev *TraceEvent) SessionStep {
	switch ev.Kind {
	case TMark:
		crash := ev.Tag == MarkCrash && m.bridging == BridgeRecovery
		returns := m.bridging != BridgeNone && (ev.Tag == MarkRecover || ev.Tag == MarkRejoin && m.bridging == BridgeRejoin)
		if crash || returns {
			st := m.state(ev.P)
			st.crashing = st.crashing || crash
			st.returning = st.returning || returns
		}
	case TJoin:
		st := m.state(ev.P)
		if st.open {
			break
		}
		step := SessionStep{Change: SessionOpened, From: ev.At}
		if st.Suspended && st.returning {
			step = SessionStep{Change: SessionResumed, From: st.From}
		}
		*st = sessionState{Session: Session{From: step.From}, open: true, crashing: st.crashing}
		return step
	case TLeave:
		st := m.states.Ref(ev.P)
		if st == nil || !st.open {
			break
		}
		step := SessionStep{Change: SessionClosed, From: st.From, To: ev.At}
		st.open = false
		if m.bridging == BridgeRejoin || m.bridging == BridgeRecovery && st.crashing {
			step.Change = SessionSuspended
			st.Suspended, st.DownAt, st.crashing = true, ev.At, false
		} else {
			// A return mark counts only once suspended; a Join clears it first.
			m.states.Delete(ev.P)
		}
		return step
	}
	return SessionStep{}
}

// state returns p's entry, creating an empty one.
func (m *SessionMachine) state(p graph.NodeID) *sessionState {
	if st := m.states.Ref(p); st != nil {
		return st
	}
	m.states.Set(p, sessionState{})
	return m.states.Ref(p)
}

// Open reports whether p has an open session.
func (m *SessionMachine) Open(p graph.NodeID) bool {
	st := m.states.Ref(p)
	return st != nil && st.open
}

// Each calls visit with every entity whose session is open or suspended.
func (m *SessionMachine) Each(visit func(p graph.NodeID, s Session)) {
	m.states.Each(func(p graph.NodeID, st sessionState) {
		if st.open || st.Suspended {
			visit(p, st.Session)
		}
	})
}
