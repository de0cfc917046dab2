// Package otq implements the paper's canonical problem — the One-Time
// Query — and the protocols whose success and failure across system
// classes the paper uses to delineate dynamic distributed systems.
//
// A querying entity q issues a query over the values held by system
// members and must satisfy:
//
//   - Termination: q eventually returns an answer;
//   - Validity: the answer accounts for the value of every entity present
//     during the whole query interval (the stable participants), and
//     contains only values of entities actually present at some point of
//     the interval.
//
// Protocols implemented: TTL-bounded flooding and its repeated variant
// (both need a known diameter bound; repetition buys loss robustness), a
// standing continuous-query flood, an adaptive echo wave with quiescence
// detection (knowledge-free, exact under eventual stability), the
// textbook tree echo (PIF, with optional departure detection),
// expanding-ring probing (its fixed-point termination test is sound only
// with bounded dynamics), gossip push-sum (approximate means), and a
// duplicate-insensitive sketch wave (approximate counts at constant
// message size). The Check function judges a protocol's answer against
// the recorded run trace, so protocols cannot self-certify; both the
// strong Validity and the weaker reachability-limited one are reported.
package otq

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// Answer is what a query returns: the merged aggregation state and, for
// specification checking, exactly which entities contributed.
type Answer struct {
	State        agg.State
	Contributors map[graph.NodeID]float64
	At           core.Time
}

// Result reads the requested aggregate from the answer.
func (a *Answer) Result(k agg.Kind) float64 { return a.State.Result(k) }

// Run is one query execution. The protocol fills the answer in when (if)
// the querier decides.
type Run struct {
	Querier graph.NodeID
	Started core.Time
	answer  *Answer
}

// Answer returns the query's answer, or nil if the querier has not
// decided (non-termination within the run's horizon).
func (r *Run) Answer() *Answer { return r.answer }

// resolve is called by the querier's behaviour exactly once.
func (r *Run) resolve(at core.Time, contribs map[graph.NodeID]float64) {
	if r.answer != nil {
		return
	}
	s := agg.Empty
	cp := make(map[graph.NodeID]float64, len(contribs))
	for id, v := range contribs {
		s = s.Merge(agg.Of(v))
		cp[id] = v
	}
	r.answer = &Answer{State: s, Contributors: cp, At: at}
}

// resolveState records an answer carrying only an aggregate state, no
// contributor identities (the gossip protocol's shape of answer).
func (r *Run) resolveState(at core.Time, st agg.State) {
	if r.answer != nil {
		return
	}
	r.answer = &Answer{State: st, Contributors: map[graph.NodeID]float64{}, At: at}
}

// Protocol is a One-Time Query algorithm: a behaviour every entity runs,
// plus a way to launch a query at an entity.
type Protocol interface {
	// Name identifies the protocol in experiment output (matches the
	// core.ProtocolID constants).
	Name() string
	// Factory returns the behaviour factory to build the world with.
	Factory() node.BehaviorFactory
	// Launch starts a query at the given present entity, now. The
	// returned Run resolves as the simulation advances.
	Launch(w *node.World, querier graph.NodeID) *Run
}

// launchAt owns what every Launch must establish before a protocol acts
// on its own assumption: a protocol value drives one query, the querier
// is present, and the world was built with the protocol's own factory
// (so the querier runs behaviour B, possibly composed beside others). It
// returns the querier's process, that behaviour, and the Run to resolve.
func launchAt[B node.Behavior](name string, launched bool, w *node.World, querier graph.NodeID) (*node.Proc, B, *Run) {
	if launched {
		panic("otq: " + name + " launched twice")
	}
	p := w.Proc(querier)
	if p == nil {
		panic(fmt.Sprintf("otq: querier %d not present", querier))
	}
	b, ok := node.FindBehavior[B](p.Behavior())
	if !ok {
		panic("otq: world was not built with this protocol's factory")
	}
	return p, b, &Run{Querier: querier, Started: int64(p.Now())}
}

// orDefault reads a protocol tunable: a non-positive value means the
// default its field documents.
func orDefault[T int | sim.Time](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Outcome is the specification checker's judgment of one Run.
type Outcome struct {
	// Terminated reports whether the querier answered within the horizon.
	Terminated bool
	// QuerierLeft reports that the querier itself departed before
	// answering: the query became moot rather than non-terminating (OTQ's
	// Termination obligation binds only a querier that stays).
	QuerierLeft bool
	// Duration is answer time minus start (0 if not terminated).
	Duration core.Time
	// MissedStable lists stable participants whose values the answer
	// ignored — Validity violations of the first kind.
	MissedStable []graph.NodeID
	// MissedReachableStable restricts MissedStable to participants that
	// were also temporally REACHABLE from the querier during the query:
	// the misses no protocol could be excused for. Bawa et al.'s weaker
	// (single-site) validity obliges a protocol only toward these — a
	// stable member behind a permanent partition is beyond any protocol's
	// reach, and the strong checker's verdict on it says more about the
	// geography class than about the protocol.
	MissedReachableStable []graph.NodeID
	// Fabricated lists contributors that were never present during the
	// query interval — Validity violations of the second kind.
	Fabricated []graph.NodeID
	// WrongValue lists contributors whose reported value differs from
	// their actual one.
	WrongValue []graph.NodeID
	// Quarantined lists the entities some receiver quarantined during the
	// run (the authentication sublayer's auth.quarantine marks). A fully
	// quarantined entity's own value becomes unreachable through its
	// direct links even though it is, by the trace, a stable participant.
	Quarantined []graph.NodeID
	// MissedQuarantined restricts MissedStable to quarantined entities:
	// misses the authentication layer itself caused (or that a forger
	// caused by framing them) rather than protocol failures.
	MissedQuarantined []graph.NodeID
	// ProvenEquivocators lists the entities some receiver holds
	// signature-backed equivocation proof against (the audit sublayer's
	// core.MarkProvenEquivocator marks). Unlike Quarantined, this set
	// cannot contain a framed scapegoat: membership requires the entity's
	// own key on two divergent payloads of one broadcast.
	ProvenEquivocators []graph.NodeID
	// MissedProven restricts MissedStable to proven equivocators: misses
	// the audit layer caused deliberately, each backed by transferable
	// proof of the silenced entity's guilt.
	MissedProven []graph.NodeID
	// EpochSwitchers lists the entities that completed at least one live
	// stack-epoch switch during the run (core.MarkEpochSwitch marks).
	// Informational: reconfiguration must be invisible to the OTQ
	// verdicts, so nothing in the checker keys on this set — it exists so
	// experiments can assert the handshake actually reached everyone.
	EpochSwitchers []graph.NodeID
	// StableCount and CoveredStable quantify coverage of the stable set.
	StableCount, CoveredStable int
}

// Valid reports exact Validity: every stable participant covered, nothing
// fabricated, no value corrupted. A non-terminated run is not valid.
func (o Outcome) Valid() bool {
	return o.Terminated && len(o.MissedStable) == 0 && len(o.Fabricated) == 0 && len(o.WrongValue) == 0
}

// ReachableValid reports the weaker, reachability-limited Validity: every
// stable participant the querier could temporally reach is covered, and
// nothing is fabricated or corrupted. Valid implies ReachableValid.
func (o Outcome) ReachableValid() bool {
	return o.Terminated && len(o.MissedReachableStable) == 0 &&
		len(o.Fabricated) == 0 && len(o.WrongValue) == 0
}

// OK reports Termination and Validity together (the full OTQ spec).
func (o Outcome) OK() bool { return o.Terminated && o.Valid() }

// ValidModuloQuarantine reports Validity with quarantine-caused misses
// excused: nothing fabricated or corrupted reached the answer, and every
// missed stable participant had been quarantined by some receiver. This
// is the strongest verdict an authenticated run under active Byzantine
// faults can honestly earn — the sublayer silenced the offender (or a
// framed scapegoat), and the protocol cannot be blamed for not hearing
// it. In a run without quarantines it coincides with Valid.
func (o Outcome) ValidModuloQuarantine() bool {
	return o.Terminated && len(o.Fabricated) == 0 && len(o.WrongValue) == 0 &&
		len(o.MissedStable) == len(o.MissedQuarantined)
}

// ValidModuloProven is the strictly stronger excuse: every missed stable
// participant is a PROVEN equivocator — silenced on transferable,
// signature-backed evidence of its own guilt, not mere per-link
// suspicion. ValidModuloProven implies ValidModuloQuarantine (a proven
// equivocator is quarantined by its prover), and unlike it, this verdict
// survives the framing attack: a forger can direct quarantines at a
// scapegoat but cannot place the scapegoat's signature on two divergent
// payloads. In a run without proven offenders it coincides with Valid.
func (o Outcome) ValidModuloProven() bool {
	return o.Terminated && len(o.Fabricated) == 0 && len(o.WrongValue) == 0 &&
		len(o.MissedStable) == len(o.MissedProven)
}

func (o Outcome) String() string {
	if o.QuerierLeft {
		return "no answer (querier left the system; query moot)"
	}
	if !o.Terminated {
		return "no answer (did not terminate)"
	}
	return fmt.Sprintf("answered in %d ticks, stable coverage %d/%d, fabricated %d, corrupted %d",
		o.Duration, o.CoveredStable, o.StableCount, len(o.Fabricated), len(o.WrongValue))
}

// CheckOptions tunes the specification checker's participation notion.
type CheckOptions struct {
	// BridgeRecoveries judges stability over recovery-bridged sessions
	// (core.Trace.SessionsBridgingRecovery): an entity that crashed during
	// the query and recovered with its state intact still counts as a
	// stable participant, so a valid answer must account for its value.
	// This is the contract crash–recovery experiments (E21) hold protocols
	// to — reachable only by channels that keep retrying across the gap.
	BridgeRecoveries bool
	// BridgeRejoins judges stability over rejoin-bridged sessions
	// (core.Trace.SessionsBridgingRejoin): an entity that left and came
	// back under the SAME identity during the query — flanked by the
	// runtime's rejoin mark — still counts as one stable participant. This
	// is the participation notion durable-identity experiments (E25) use:
	// when security state persists across churn, a rejoined identity is
	// the same principal, not a fresh arrival. Subsumes BridgeRecoveries
	// (crash–recovery gaps bridge too).
	BridgeRejoins bool
}

// Check judges a run against the recorded trace. The query interval is
// [r.Started, answer time] (or the trace end when the querier never
// answered, in which case only Termination is judged). valueOf must be
// the same assignment the world used.
func Check(tr *core.Trace, r *Run, valueOf func(graph.NodeID) float64) Outcome {
	return CheckWith(tr, r, valueOf, CheckOptions{})
}

// CheckWith is Check with an explicit participation notion. It replays
// the retained trace through a StreamChecker, armed before the first
// event at or after r.Started, so a post-hoc check and a live one are the
// same judge.
func CheckWith(tr *core.Trace, r *Run, valueOf func(graph.NodeID) float64, opts CheckOptions) Outcome {
	c := NewStreamChecker(opts)
	armed := false
	tr.Replay(func(ev core.TraceEvent) {
		if !armed && ev.At >= r.Started {
			c.Arm(r)
			armed = true
		}
		c.Observe(ev)
	})
	if !armed {
		c.Arm(r)
	}
	return c.Finish(tr.End(), valueOf)
}

// contrib is one entry of the contribution sets the exact protocols
// relay: who contributed which value. A set never names an ID twice, and
// no one writes a set once it is sent: receivers read it, relays forward
// it as it is, Tamper builds a new one.
type contrib struct {
	ID graph.NodeID
	V  float64
}

// copyContrib copies a contribution map, which the querier-side
// accumulators keep, so answers and snapshots do not alias them.
func copyContrib(m map[graph.NodeID]float64) map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
