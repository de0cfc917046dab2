package otq

import (
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// ExpandingRing probes with TTL-bounded floods of doubling radius and
// stops at a fixed point: when two successive rounds return identical
// contributor sets, the querier concludes the last ring covered the whole
// system and answers.
//
// With a known diameter bound (or a static system) the fixed-point test is
// sound: once the radius exceeds the diameter, consecutive rounds coincide
// and cover everything. Under churn the test can be fooled — the paper's
// claim C2/C3: rounds r and r+1 may coincide while a stable participant
// sits beyond the probed radius or was temporarily unreachable.
//
// An ExpandingRing value drives a single world and a single query.
type ExpandingRing struct {
	// MaxLatency is the known per-hop latency bound used to size each
	// round's deadline.
	MaxLatency sim.Time
	// MaxTTL caps ring growth (safety and termination backstop): when the
	// radius reaches MaxTTL the querier answers with what it has.
	MaxTTL int

	run *Run
}

// Name implements Protocol.
func (*ExpandingRing) Name() string { return "expanding-ring" }

// Factory implements Protocol. Members run the same flood logic as
// FloodTTL; only the querier differs.
func (*ExpandingRing) Factory() node.BehaviorFactory { return floodFactory }

// Launch implements Protocol.
func (e *ExpandingRing) Launch(w *node.World, querier graph.NodeID) *Run {
	if e.MaxLatency <= 0 || e.MaxTTL <= 0 {
		panic("otq: ExpandingRing needs positive MaxLatency and MaxTTL")
	}
	p, b, run := launchAt[*floodBehavior]("ExpandingRing", e.run != nil, w, querier)
	e.run = run
	b.asQuerier()
	e.round(p, b, 1, 1, nil)
	return run
}

// round floods at radius ttl under query ID qid and, at the deadline,
// either answers (fixed point or cap) or doubles the radius.
func (e *ExpandingRing) round(p *node.Proc, b *floodBehavior, ttl, qid int, prev map[graph.NodeID]float64) {
	if !p.Alive() {
		return // querier left; the query dies unanswered
	}
	p.After(b.flood(p, qid, ttl, e.MaxLatency), func() {
		cur := b.acc[qid]
		if (prev != nil && sameContributors(prev, cur)) || ttl >= e.MaxTTL {
			p.Mark("otq.answer")
			e.run.resolve(int64(p.Now()), cur)
			return
		}
		next := ttl * 2
		if next > e.MaxTTL {
			next = e.MaxTTL
		}
		e.round(p, b, next, qid+1, cur)
	})
}

func sameContributors(a, b map[graph.NodeID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if _, ok := b[id]; !ok {
			return false
		}
	}
	return true
}
