package otq

import (
	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/sketch"
)

const tagSketch = "otq.sketch"

type sketchMsg struct {
	SK *sketch.FM // cloned before sending; receivers never mutate it
}

// SketchWave answers COUNT queries with constant-size messages: instead
// of relaying contributor identity sets (whose size grows with the
// system — the cost E11 measures), entities dissipate a duplicate-
// insensitive Flajolet-Martin sketch. Merging is idempotent, so the
// sketch can flow along every redundant path and be re-merged freely;
// the protocol needs no duplicate suppression at all. The answer is
// approximate (~0.78/sqrt(Rows) relative error) and carries no
// contributor identities — the size-dimension trade in its purest form:
// exactness versus state that must name every entity in a system whose
// size is the very thing in question.
//
// Termination is quiescence-based, as in EchoWave. A SketchWave value
// drives a single world and a single query.
type SketchWave struct {
	// Rows sizes the sketch (payload words per message). Default 64.
	Rows int
	// RescanInterval is the anti-entropy period. Default 5.
	RescanInterval sim.Time
	// QuietFor is the quiescence window after which the querier answers.
	// Default 60.
	QuietFor sim.Time
	// MaxRescans bounds each entity's anti-entropy ticks. Default 1000.
	MaxRescans int

	run *Run
	// payloadWords accumulates the total 64-bit words of sketch payload
	// sent, for cost accounting against exact protocols.
	payloadWords int64
}

// Name implements Protocol.
func (*SketchWave) Name() string { return "sketch-wave" }

// PayloadWords returns the total sketch payload shipped, in 64-bit words.
func (sw *SketchWave) PayloadWords() int64 { return sw.payloadWords }

// sketchWaveBehavior dissipates the sketch. It has no Snapshot/Restore: a
// recovered entity restarts through Init and re-seeds when the wave next
// reaches it (merging is idempotent, so nothing is double-counted).
type sketchWaveBehavior struct {
	wave
	proto *SketchWave
	sk    *sketch.FM
	ver   int // bumps whenever the local sketch changes
}

// Factory implements Protocol.
func (sw *SketchWave) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior {
		b := &sketchWaveBehavior{proto: sw}
		b.state = b
		return b
	}
}

func (b *sketchWaveBehavior) Receive(p *node.Proc, m node.Message) {
	if m.Tag != tagSketch {
		return
	}
	b.activate(p)
	incoming := m.Payload.(sketchMsg).SK
	before := b.sk.Clone()
	b.sk.Merge(incoming)
	if !b.sk.Equal(before) {
		b.ver++
		b.lastNew = p.Now()
	}
}

func (b *sketchWaveBehavior) tuning() (sim.Time, sim.Time, int, *Run) {
	return b.proto.RescanInterval, b.proto.QuietFor, b.proto.MaxRescans, b.proto.run
}

func (b *sketchWaveBehavior) seed(p *node.Proc) {
	b.sk = sketch.New(orDefault(b.proto.Rows, 64))
	b.sk.Add(uint64(p.ID))
	b.ver = 1
}

func (b *sketchWaveBehavior) version() int { return b.ver }

func (b *sketchWaveBehavior) push(p *node.Proc, to graph.NodeID) {
	p.Send(to, tagSketch, sketchMsg{SK: b.sk.Clone()})
	b.proto.payloadWords += int64(b.sk.Words())
}

func (b *sketchWaveBehavior) answer(run *Run, at core.Time) {
	run.resolveState(at, agg.State{Count: b.sk.Estimate()})
}

// Launch implements Protocol.
func (sw *SketchWave) Launch(w *node.World, querier graph.NodeID) *Run {
	p, b, run := launchAt[*sketchWaveBehavior]("SketchWave", sw.run != nil, w, querier)
	sw.run = run
	b.launch(p)
	return run
}
