package otq

import (
	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
)

const tagGossip = "otq.push-sum"

type gossipMsg struct {
	S, W float64
}

// GossipPushSum is the approximate baseline (claim C5): instead of exact
// Validity, every member continuously runs push-sum averaging — each round
// it keeps half of its (sum, weight) mass and pushes the other half to a
// random neighbor — and the querier reads its local estimate of the mean
// after a fixed number of rounds.
//
// The protocol always terminates, never identifies contributors (its
// answer carries an empty contributor set, so it can never be exactly
// Valid), and its error grows gracefully with churn: departures carry
// mass away and arrivals dilute it. Only the Mean aggregate is estimated;
// that is the aggregate experiment E6 measures.
//
// A GossipPushSum value drives a single world and a single query.
type GossipPushSum struct {
	// RoundInterval is the per-member gossip period. Default 2.
	RoundInterval sim.Time
	// Rounds is how many of its own rounds the querier waits before
	// reading its estimate. Default 50.
	Rounds int
	// MaxTicks bounds each member's gossip activity (safety valve).
	// Default 5000.
	MaxTicks int
	// Seed drives each member's random neighbor choice.
	Seed uint64

	run *Run
}

// Name implements Protocol.
func (*GossipPushSum) Name() string { return "gossip-push-sum" }

type gossipBehavior struct {
	proto *GossipPushSum
	r     *rng.Rand
	s, w  float64
	ticks int

	// nbrs is tick's neighbour buffer; next is the re-arming closure,
	// built once per Proc (Restore may hand in a new one).
	nbrs  []graph.NodeID
	nextP *node.Proc
	next  func()
}

// Factory implements Protocol. Every member gossips from the moment it
// joins; the query only decides when the estimate is read.
func (g *GossipPushSum) Factory() node.BehaviorFactory {
	return func(id graph.NodeID) node.Behavior {
		return &gossipBehavior{
			proto: g,
			r:     rng.New(g.Seed ^ uint64(id)*0x9e3779b97f4a7c15),
		}
	}
}

func (b *gossipBehavior) Init(p *node.Proc) {
	b.s, b.w = p.Value, 1
	b.schedule(p)
}

func (b *gossipBehavior) schedule(p *node.Proc) {
	b.ticks++
	if b.ticks > orDefault(b.proto.MaxTicks, 5000) {
		return
	}
	if b.nextP != p {
		b.nextP, b.next = p, func() { b.tick(p) }
	}
	p.After(orDefault(b.proto.RoundInterval, 2), b.next)
}

func (b *gossipBehavior) tick(p *node.Proc) {
	b.nbrs = p.AppendNeighbors(b.nbrs[:0])
	if len(b.nbrs) > 0 {
		u := b.nbrs[b.r.Intn(len(b.nbrs))]
		b.s /= 2
		b.w /= 2
		p.Send(u, tagGossip, gossipMsg{S: b.s, W: b.w})
	}
	b.schedule(p)
}

func (b *gossipBehavior) Receive(p *node.Proc, m node.Message) {
	if m.Tag != tagGossip {
		return
	}
	g := m.Payload.(gossipMsg)
	b.s += g.S
	b.w += g.W
}

// Estimate returns the member's current estimate of the system mean.
func (b *gossipBehavior) Estimate() float64 { return b.s / b.w }

// Launch implements Protocol.
func (g *GossipPushSum) Launch(w *node.World, querier graph.NodeID) *Run {
	p, b, run := launchAt[*gossipBehavior]("GossipPushSum", g.run != nil, w, querier)
	g.run = run
	wait := sim.Time(orDefault(g.Rounds, 50)) * orDefault(g.RoundInterval, 2)
	p.After(wait, func() {
		p.Mark("otq.answer")
		// Encode the estimate so that State.Result(agg.Mean) reads s/w.
		run.resolveState(int64(p.Now()), agg.State{Count: b.w, Sum: b.s})
	})
	return run
}

// gossipSnapshot is the crash-survivable state of a push-sum member: its
// share of the system's mass and its round budget. The neighbor-choice
// rng is deliberately not part of it — the factory re-derives the same
// per-identity stream on recovery, which restarts it from the beginning;
// the choices stay deterministic, and push-sum's convergence is
// indifferent to WHICH random neighbor a round picks.
type gossipSnapshot struct {
	s, w  float64
	ticks int
}

// Snapshot implements node.Recoverable.
func (b *gossipBehavior) Snapshot() any {
	return gossipSnapshot{s: b.s, w: b.w, ticks: b.ticks}
}

// Restore implements node.Recoverable: the member resumes gossiping with
// its snapshotted mass instead of re-injecting a fresh (value, 1) pair —
// re-running Init after a crash would double-count the entity's mass and
// bias the estimated mean.
func (b *gossipBehavior) Restore(p *node.Proc, snap any) {
	s := snap.(gossipSnapshot)
	b.s, b.w, b.ticks = s.s, s.w, s.ticks
	b.schedule(p)
}
