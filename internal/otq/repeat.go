package otq

import (
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// RepeatedFlood floods at a fixed TTL repeatedly and answers with the
// union of everything heard, stopping when a round contributes nothing
// new (or at MaxRounds). With a sound TTL it has FloodTTL's guarantees
// plus robustness: a contribution lost to message drops or a dying relay
// in one round is recovered by a later one, as long as some functioning
// path exists during some round. It is the redundancy-in-time answer to
// unreliable communication, whereas the TTL itself remains the
// knowledge-out-of-band the paper's analysis turns on.
//
// A RepeatedFlood value drives a single world and a single query.
type RepeatedFlood struct {
	// TTL is the wave depth of every round.
	TTL int
	// MaxLatency is the known per-hop latency bound sizing each round's
	// deadline.
	MaxLatency sim.Time
	// MaxRounds caps repetition. Default 8.
	MaxRounds int
	// QuietRounds is how many consecutive rounds must add no new
	// contributor before the querier answers. Higher values trade time
	// for confidence under message loss. Default 2.
	QuietRounds int

	run *Run
}

// Name implements Protocol.
func (*RepeatedFlood) Name() string { return "flood-repeat" }

// Factory implements Protocol: members run the shared flood logic.
func (*RepeatedFlood) Factory() node.BehaviorFactory { return floodFactory }

// Launch implements Protocol.
func (rf *RepeatedFlood) Launch(w *node.World, querier graph.NodeID) *Run {
	if rf.TTL <= 0 || rf.MaxLatency <= 0 {
		panic("otq: RepeatedFlood needs positive TTL and MaxLatency")
	}
	p, b, run := launchAt[*floodBehavior]("RepeatedFlood", rf.run != nil, w, querier)
	rf.run = run
	b.asQuerier()
	rf.round(p, b, 1, 0, map[graph.NodeID]float64{})
	return run
}

// round floods once more; quiet counts consecutive rounds that added no
// new contributor. QuietRounds quiet rounds in a row end the query: a
// single quiet round is routinely an artifact of random losses, not
// coverage.
func (rf *RepeatedFlood) round(p *node.Proc, b *floodBehavior, qid, quiet int, union map[graph.NodeID]float64) {
	if !p.Alive() {
		return // querier left; the query dies unanswered
	}
	p.After(b.flood(p, qid, rf.TTL, rf.MaxLatency), func() {
		grew := false
		for id, v := range b.acc[qid] {
			if _, ok := union[id]; !ok {
				union[id] = v
				grew = true
			}
		}
		if grew {
			quiet = 0
		} else {
			quiet++
		}
		if quiet >= orDefault(rf.QuietRounds, 2) || qid >= orDefault(rf.MaxRounds, 8) {
			p.Mark("otq.answer")
			rf.run.resolve(int64(p.Now()), union)
			return
		}
		rf.round(p, b, qid+1, quiet, union)
	})
}
