package otq

import (
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// Message tags of the exact (flooding-family) protocols.
const (
	tagQuery  = "otq.query"
	tagReport = "otq.report"
)

type queryMsg struct {
	QID int
	TTL int
}

type reportMsg struct {
	QID     int
	Contrib []contrib
}

// floodBehavior is the member-side logic every flooding-family protocol
// shares: forward a TTL-bounded query wave outward, relay contributions
// back along the parent pointers. It supports multiple query IDs (the
// repeating protocols issue one per round).
type floodBehavior struct {
	parent map[int]graph.NodeID // per QID: who I first heard it from
	acc    accumulator          // non-nil at the querier
	nbrs   []graph.NodeID       // onQuery's neighbour buffer
	own    []contrib            // my one-entry contribution, built once
}

func (b *floodBehavior) Init(*node.Proc) {}

func (b *floodBehavior) Receive(p *node.Proc, m node.Message) {
	switch m.Tag {
	case tagQuery:
		b.onQuery(p, m.From, m.Payload.(queryMsg))
	case tagReport:
		r := m.Payload.(reportMsg)
		if b.acc != nil {
			b.acc.absorb(r.QID, r.Contrib)
		} else if parent, ok := b.parent[r.QID]; ok {
			// Relayed as it arrived: the payload is already boxed.
			p.Send(parent, tagReport, m.Payload)
		}
	}
}

// floodFactory is every flooding-family protocol's Factory: only the
// querier, which Launch picks, behaves differently.
func floodFactory(graph.NodeID) node.Behavior { return &floodBehavior{} }

// onQuery handles a query wave arrival.
func (b *floodBehavior) onQuery(p *node.Proc, from graph.NodeID, q queryMsg) {
	if b.parent == nil {
		b.parent = make(map[int]graph.NodeID)
	}
	if _, seen := b.parent[q.QID]; seen {
		return
	}
	b.parent[q.QID] = from
	// Contribute my own value upstream.
	b.sendUp(p, q.QID, b.ownContrib(p))
	if q.TTL > 0 {
		// Boxed once for every neighbour, not once per send.
		var fwd any = queryMsg{QID: q.QID, TTL: q.TTL - 1}
		b.nbrs = p.AppendNeighbors(b.nbrs[:0])
		for _, u := range b.nbrs {
			if u != from {
				p.Send(u, tagQuery, fwd)
			}
		}
	}
}

// ownContrib is this entity's contribution, one entry that every query
// it answers shares: a Proc's ID and Value never change.
func (b *floodBehavior) ownContrib(p *node.Proc) []contrib {
	if b.own == nil {
		b.own = []contrib{{p.ID, p.Value}}
	}
	return b.own
}

// sendUp sends the entity's own contribution toward the querier, which
// absorbs it; Receive relays other entities' reports the same way. The
// bundle travels as it is, uncopied: no one writes it (the querier
// absorbs into its own maps, Tamper copies).
func (b *floodBehavior) sendUp(p *node.Proc, qid int, contrib []contrib) {
	if b.acc != nil {
		b.acc.absorb(qid, contrib)
		return
	}
	parent, ok := b.parent[qid]
	if !ok {
		// A report for a wave I never saw (e.g. I joined mid-query and a
		// straggler reply reached me): nowhere to route it.
		return
	}
	p.Send(parent, tagReport, reportMsg{QID: qid, Contrib: contrib})
}

// accumulator gathers contributions at the querier, per query ID.
type accumulator map[int]map[graph.NodeID]float64

func (a accumulator) absorb(qid int, contrib []contrib) {
	m := a[qid]
	if m == nil {
		m = make(map[graph.NodeID]float64)
		a[qid] = m
	}
	for _, c := range contrib {
		if _, dup := m[c.ID]; !dup {
			m[c.ID] = c.V
		}
	}
}

// floodSnapshot is the crash-survivable state of a flood-family entity:
// the parent pointers that route reports upstream and, at the querier,
// the contributions gathered so far.
type floodSnapshot struct {
	parent map[int]graph.NodeID
	byQID  accumulator // non-nil at the querier
}

// Snapshot implements node.Recoverable.
func (b *floodBehavior) Snapshot() any {
	var s floodSnapshot
	if b.parent != nil {
		s.parent = make(map[int]graph.NodeID, len(b.parent))
		for qid, parent := range b.parent {
			s.parent[qid] = parent
		}
	}
	if b.acc != nil {
		s.byQID = make(accumulator, len(b.acc))
		for qid, m := range b.acc {
			s.byQID[qid] = copyContrib(m)
		}
	}
	return s
}

// Restore implements node.Recoverable. A recovered relay keeps routing
// reports for waves it had joined; a recovered querier keeps the
// contributions it had absorbed (though its answer deadline, a timer,
// died with the crash — the query resolves only if it was already
// resolved or a driver re-arms it).
func (b *floodBehavior) Restore(_ *node.Proc, snap any) {
	s := snap.(floodSnapshot)
	b.parent, b.acc = s.parent, s.byQID
}

// asQuerier makes this entity the sink of the waves it is about to flood.
func (b *floodBehavior) asQuerier() {
	b.acc = make(accumulator)
	b.parent = make(map[int]graph.NodeID)
}

// roundTrip is how long a wave of radius ttl needs to come home: out in
// <= ttl hops, back in <= ttl hops, each at most perHop, plus slack (a
// scheduling margin; default 2).
func roundTrip(ttl int, perHop, slack sim.Time) sim.Time {
	return 2*sim.Time(ttl)*perHop + orDefault(slack, 2)
}

// flood is the querier's side of one round, whatever rule decides when
// rounds stop: own wave qid, contribute my value, broadcast the query at
// radius ttl. It returns the round trip after which everything within
// ttl hops that could answer has.
func (b *floodBehavior) flood(p *node.Proc, qid, ttl int, perHop, slack sim.Time) sim.Time {
	b.parent[qid] = p.ID
	b.acc.absorb(qid, b.ownContrib(p))
	p.Broadcast(tagQuery, queryMsg{QID: qid, TTL: ttl - 1})
	return roundTrip(ttl, perHop, slack)
}

// FloodTTL is the protocol that solves OTQ when a diameter bound is known
// (claim C1): the querier floods a TTL-bounded wave, members relay
// contributions back along parent pointers, and the querier answers after
// a deadline computed from the known TTL and latency bound — the knowledge
// that makes its termination sound.
//
// A FloodTTL value drives a single world and a single query; create a
// fresh one per run.
type FloodTTL struct {
	// TTL is the wave depth: a sound choice is the class's diameter bound.
	TTL int
	// MaxLatency is the known per-hop latency bound used to size the
	// answer deadline.
	MaxLatency sim.Time
	// Slack pads the deadline (scheduling margin). Default 2.
	Slack sim.Time

	run *Run
}

// Name implements Protocol.
func (*FloodTTL) Name() string { return "flood-ttl" }

// Factory implements Protocol.
func (*FloodTTL) Factory() node.BehaviorFactory { return floodFactory }

// Launch implements Protocol. It panics if the querier is absent, the
// behaviour factory was not this protocol's, or parameters are unset.
// One round: the known bound makes its deadline the sound moment to answer.
func (f *FloodTTL) Launch(w *node.World, querier graph.NodeID) *Run {
	if f.TTL <= 0 || f.MaxLatency <= 0 {
		panic("otq: FloodTTL needs positive TTL and MaxLatency")
	}
	p, b, run := launchAt[*floodBehavior]("FloodTTL", f.run != nil, w, querier)
	f.run = run
	b.asQuerier()
	const qid = 1
	p.After(b.flood(p, qid, f.TTL, f.MaxLatency, f.Slack), func() {
		p.Mark("otq.answer")
		run.resolve(int64(p.Now()), b.acc[qid])
	})
	return run
}
