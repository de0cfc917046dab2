package otq

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// waveState is what an anti-entropy wave dissipates and how the querier
// reads it: the only part in which EchoWave and SketchWave differ.
type waveState interface {
	// tuning returns the protocol's RescanInterval, QuietFor, MaxRescans
	// (non-positive: defaults 5, 60, 1000) and its run, nil before Launch.
	tuning() (rescan, quietFor sim.Time, maxRescans int, run *Run)
	// seed starts the local state from the entity's own value.
	seed(p *node.Proc)
	// version grows whenever the local state has; it is positive once
	// seeded, so a neighbor never pushed to is always behind.
	version() int
	// push sends the current state to one neighbor.
	push(p *node.Proc, to graph.NodeID)
	// answer resolves the run from the current state.
	answer(run *Run, at core.Time)
}

// wave is the knowledge-free dissemination EchoWave and SketchWave share.
// An activated entity re-pushes its state to every neighbor whose last
// push is behind the current version — which also covers neighbors
// gained through churn repairs — every RescanInterval ticks, at most
// MaxRescans times. The querier answers by quiescence detection: once
// its state has not grown for QuietFor ticks. A behaviour embeds wave,
// points state at itself, and sets lastNew whenever a merge grew its
// state.
type wave struct {
	state   waveState
	active  bool
	sent    map[graph.NodeID]int // per neighbor: version at last push
	rescans int

	// Querier-only state.
	isQuerier bool
	lastNew   sim.Time
	started   sim.Time
}

func (*wave) Init(*node.Proc) {}

// launch makes this entity the querier and starts the wave at it.
func (w *wave) launch(p *node.Proc) {
	w.isQuerier = true
	w.started = p.Now()
	w.activate(p)
}

// activate starts participating: seed the state with my own value and
// begin anti-entropy ticks.
func (w *wave) activate(p *node.Proc) {
	if w.active {
		return
	}
	w.active = true
	w.state.seed(p)
	w.sent = make(map[graph.NodeID]int)
	w.lastNew = p.Now()
	w.tick(p)
}

func (w *wave) tick(p *node.Proc) {
	rescan, quietFor, maxRescans, run := w.state.tuning()
	v := w.state.version()
	for _, u := range p.Neighbors() {
		if w.sent[u] < v {
			w.state.push(p, u)
			w.sent[u] = v
		}
	}
	if w.isQuerier && run.Answer() == nil {
		now, quiet := p.Now(), orDefault(quietFor, 60)
		if now-w.lastNew >= quiet && now-w.started >= quiet {
			p.Mark("otq.answer")
			w.state.answer(run, int64(now))
			return
		}
	}
	w.rescans++
	if w.rescans >= orDefault(maxRescans, 1000) {
		return
	}
	p.After(orDefault(rescan, 5), func() { w.tick(p) })
}
