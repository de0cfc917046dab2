package otq

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

const tagEchoSet = "otq.echo-set"

// echoSetMsg ships a contributor set behind one pointer, allocated once
// per version and shared by all of that version's pushes; being
// pointer-shaped, it boxes into a Message payload without allocating.
type echoSetMsg struct {
	Contrib *[]contrib
}

// set is the shipped contributor set; a nil pointer reads as empty.
func (m echoSetMsg) set() []contrib {
	if m.Contrib == nil {
		return nil
	}
	return *m.Contrib
}

// EchoWave is the knowledge-free wave protocol (claim C4): it needs no
// diameter bound. Activated entities dissipate the growing contribution
// set to every neighbor (anti-entropy: a neighbor is re-pushed whenever
// the local set has grown past what it was last sent, which also covers
// neighbors gained through churn repairs). The querier terminates by
// quiescence detection: it answers once no new contributor has appeared
// for QuietFor ticks.
//
// In an eventually-stable run the wave covers the querier's stable
// component after stabilization and then quiesces: Termination and
// Validity both hold. Under perpetual churn the quiescence test is
// fallible — exactly the paper's point: the querier either answers too
// early (Validity violated) or is starved forever by fresh arrivals
// (Termination violated).
//
// An EchoWave value drives a single world and a single query.
type EchoWave struct {
	// RescanInterval is the anti-entropy period. Default 5.
	RescanInterval sim.Time
	// QuietFor is the quiescence window after which the querier answers.
	// Default 60.
	QuietFor sim.Time
	// MaxRescans bounds each entity's anti-entropy ticks (a safety valve
	// so a run cannot schedule events forever). Default 1000.
	MaxRescans int

	run *Run
	// payloadEntries accumulates the total contributor-set entries sent,
	// and maxPayload the largest single message, for cost accounting
	// against sketch-based aggregation (E16).
	payloadEntries int64
	maxPayload     int64
}

// PayloadEntries returns the total contributor-set entries shipped.
func (e *EchoWave) PayloadEntries() int64 { return e.payloadEntries }

// MaxPayload returns the largest single message, in entries.
func (e *EchoWave) MaxPayload() int64 { return e.maxPayload }

// Name implements Protocol.
func (*EchoWave) Name() string { return "echo-wave" }

// echoWaveBehavior dissipates the contributor set itself: its version is
// the set's size, so Restore's fresh watermarks put every neighbor behind.
type echoWaveBehavior struct {
	wave
	proto *EchoWave
	// known is the contributor set, append-only between seeds: no entry
	// below its length is ever rewritten. So every push of one version
	// ships the same prefix known[:n:n] uncopied, and because that prefix
	// has no spare capacity, no append through it reaches known's array.
	known []contrib
	has   idSet // the IDs in known
	// shipped points at the prefix the current version's pushes share.
	shipped *[]contrib
}

// Factory implements Protocol.
func (e *EchoWave) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior {
		b := &echoWaveBehavior{proto: e}
		b.state = b
		return b
	}
}

func (b *echoWaveBehavior) Receive(p *node.Proc, m node.Message) {
	if m.Tag != tagEchoSet {
		return
	}
	b.activate(p)
	for _, c := range m.Payload.(echoSetMsg).set() {
		if b.has.add(c.ID) {
			b.known = append(b.known, c)
			b.lastNew = p.Now()
		}
	}
}

func (b *echoWaveBehavior) tuning() (sim.Time, sim.Time, int, *Run) {
	return b.proto.RescanInterval, b.proto.QuietFor, b.proto.MaxRescans, b.proto.run
}

func (b *echoWaveBehavior) seed(p *node.Proc) {
	b.known = []contrib{{p.ID, p.Value}}
	b.has = idSet{}
	b.has.add(p.ID)
	b.shipped = nil
}

func (b *echoWaveBehavior) version() int { return len(b.known) }

func (b *echoWaveBehavior) push(p *node.Proc, to graph.NodeID) {
	if b.shipped == nil || len(*b.shipped) != len(b.known) {
		s := b.known[:len(b.known):len(b.known)]
		b.shipped = &s
	}
	p.Send(to, tagEchoSet, echoSetMsg{Contrib: b.shipped})
	n := int64(len(b.known))
	b.proto.payloadEntries += n
	if n > b.proto.maxPayload {
		b.proto.maxPayload = n
	}
}

func (b *echoWaveBehavior) answer(run *Run, at core.Time) {
	m := make(map[graph.NodeID]float64, len(b.known))
	for _, c := range b.known {
		m[c.ID] = c.V
	}
	run.resolve(at, m)
}

// echoSnapshot is the crash-survivable state of an echo-wave entity. Its
// known is a prefix of the entity's set, shared as the pushes share it.
type echoSnapshot struct {
	active    bool
	known     []contrib
	rescans   int
	isQuerier bool
	lastNew   sim.Time
	started   sim.Time
}

// Snapshot implements node.Recoverable.
func (b *echoWaveBehavior) Snapshot() any {
	return echoSnapshot{
		active:    b.active,
		known:     b.known[:len(b.known):len(b.known)],
		rescans:   b.rescans,
		isQuerier: b.isQuerier,
		lastNew:   b.lastNew,
		started:   b.started,
	}
}

// Restore implements node.Recoverable. The per-neighbor send watermarks
// are deliberately NOT restored: a recovering entity re-offers its whole
// set to every neighbor, which is the anti-entropy way back to
// convergence after a silent gap (peers may have progressed, or churned,
// while it was down). A recovering querier resumes quiescence detection
// where the crash interrupted it.
func (b *echoWaveBehavior) Restore(p *node.Proc, snap any) {
	s := snap.(echoSnapshot)
	b.active = s.active
	b.known, b.shipped = s.known, nil
	b.has = idSet{}
	for _, c := range s.known {
		b.has.add(c.ID)
	}
	b.rescans = s.rescans
	b.isQuerier = s.isQuerier
	b.lastNew = s.lastNew
	b.started = s.started
	if b.active {
		b.sent = make(map[graph.NodeID]int)
		b.tick(p)
	}
}

// Launch implements Protocol.
func (e *EchoWave) Launch(w *node.World, querier graph.NodeID) *Run {
	p, b, run := launchAt[*echoWaveBehavior]("EchoWave", e.run != nil, w, querier)
	e.run = run
	b.launch(p)
	return run
}

// idSetBits bounds the IDs an idSet keeps as bits: at most 128 KiB.
const idSetBits = 1 << 20

// idSet is the membership test of a contributor set. Churn allocates IDs
// densely from 1, so a bitset holds nearly all of them; any ID past
// idSetBits (or negative) falls back to a map.
type idSet struct {
	bits []uint64
	rest map[graph.NodeID]struct{}
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id graph.NodeID) bool {
	if uint64(id) >= idSetBits {
		if _, ok := s.rest[id]; ok {
			return false
		}
		if s.rest == nil {
			s.rest = make(map[graph.NodeID]struct{})
		}
		s.rest[id] = struct{}{}
		return true
	}
	w, bit := int(id>>6), uint64(1)<<(id&63)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	return true
}
