package otq

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

const tagEchoSet = "otq.echo-set"

type echoSetMsg struct {
	Contrib map[graph.NodeID]float64
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
	// payloadEntries accumulates the total contributor-map entries sent,
	// and maxPayload the largest single message, for cost accounting
	// against sketch-based aggregation (E16).
	payloadEntries int64
	maxPayload     int64
}

// PayloadEntries returns the total contributor-map entries shipped.
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
	known map[graph.NodeID]float64
	// shipped is the copy of known that every push ships until known
	// grows: one copy per version, not per neighbour. Sharing it is sound
	// because nothing writes a received Contrib (receivers read it,
	// Tamper copies it) and known only grows between seeds, so equal
	// lengths mean equal sets.
	shipped map[graph.NodeID]float64
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
	set := m.Payload.(echoSetMsg)
	for id, v := range set.Contrib {
		if _, ok := b.known[id]; !ok {
			b.known[id] = v
			b.lastNew = p.Now()
		}
	}
}

func (b *echoWaveBehavior) tuning() (sim.Time, sim.Time, int, *Run) {
	return b.proto.RescanInterval, b.proto.QuietFor, b.proto.MaxRescans, b.proto.run
}

func (b *echoWaveBehavior) seed(p *node.Proc) {
	b.known = map[graph.NodeID]float64{p.ID: p.Value}
	b.shipped = nil
}

func (b *echoWaveBehavior) version() int { return len(b.known) }

func (b *echoWaveBehavior) push(p *node.Proc, to graph.NodeID) {
	if b.shipped == nil || len(b.shipped) != len(b.known) {
		b.shipped = copyContrib(b.known)
	}
	p.Send(to, tagEchoSet, echoSetMsg{Contrib: b.shipped})
	n := int64(len(b.known))
	b.proto.payloadEntries += n
	if n > b.proto.maxPayload {
		b.proto.maxPayload = n
	}
}

func (b *echoWaveBehavior) answer(run *Run, at core.Time) { run.resolve(at, b.known) }

// echoSnapshot is the crash-survivable state of an echo-wave entity.
type echoSnapshot struct {
	active    bool
	known     map[graph.NodeID]float64
	rescans   int
	isQuerier bool
	lastNew   sim.Time
	started   sim.Time
}

// Snapshot implements node.Recoverable.
func (b *echoWaveBehavior) Snapshot() any {
	s := echoSnapshot{
		active:    b.active,
		rescans:   b.rescans,
		isQuerier: b.isQuerier,
		lastNew:   b.lastNew,
		started:   b.started,
	}
	if b.known != nil {
		s.known = copyContrib(b.known)
	}
	return s
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
