// Package lookup implements greedy key lookup over the structured
// (finger-ring) overlay: the routing protocol that turns engineered
// geography into usable knowledge. A key hashes to a point on the
// circular identifier space; its owner is the member whose hash position
// is the first at or clockwise after that point; routing forwards the
// request to whichever neighbor's position is clockwise-closest to the
// key without passing it, halving the remaining distance per hop on an
// ideal finger set — O(log n) hops.
//
// Every decision is local: a member knows only its neighbors' identifiers
// (whose positions it can compute), never the membership. When it sees no
// neighbor strictly closer to the key than itself, it declares itself the
// owner. Under churn that conclusion can be stale — the trace-based
// checker compares the claimed owner with the true successor at answer
// time.
package lookup

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/topology"
)

const tagLookup = "lookup.req"

type lookupMsg struct {
	Key     uint64
	Hops    int
	Budget  int
	Querier graph.NodeID
}

// Fingerprint implements node.Fingerprinter.
func (m lookupMsg) Fingerprint() uint64 {
	const fpLookup = 0xfed0c435ff602bdb
	h := rng.Mix64(fpLookup ^ m.Key)
	h = rng.Mix64(h ^ uint64(m.Hops))
	h = rng.Mix64(h ^ uint64(m.Budget))
	return rng.Mix64(h ^ uint64(m.Querier))
}

// Result is a completed lookup.
type Result struct {
	Key   uint64
	Owner graph.NodeID
	Hops  int
	At    int64
}

// Run is one lookup execution; Result is nil until some member declares
// ownership (or forever, if the hop budget ran out).
type Run struct {
	result *Result
}

// Result returns the lookup's outcome, or nil.
func (r *Run) Result() *Result { return r.result }

// Lookup configures and drives lookups. One Lookup value serves a single
// world but any number of sequential lookups.
type Lookup struct {
	runs map[uint64]*Run // by key; single outstanding lookup per key
}

// maxHops bounds routing (loop/starvation backstop).
const maxHops = 128

// clockwiseDist returns the distance from a to b going clockwise.
func clockwiseDist(from, to uint64) uint64 { return to - from } // wraps mod 2^64

type lookupBehavior struct {
	proto *Lookup
}

// Factory returns the behaviour factory for worlds hosting lookups.
func (l *Lookup) Factory() node.BehaviorFactory {
	if l.runs == nil {
		l.runs = make(map[uint64]*Run)
	}
	return func(graph.NodeID) node.Behavior { return &lookupBehavior{proto: l} }
}

func (b *lookupBehavior) Init(*node.Proc) {}

func (b *lookupBehavior) Receive(p *node.Proc, m node.Message) {
	if m.Tag != tagLookup {
		return
	}
	req := m.Payload.(lookupMsg)
	b.route(p, req)
}

// route forwards the request greedily or claims ownership.
func (b *lookupBehavior) route(p *node.Proc, req lookupMsg) {
	if req.Budget <= 0 {
		return // lookup dies; the Run never resolves
	}
	// My clockwise distance TO the key's successor point: the owner is
	// the member with the smallest distance FROM the key to itself.
	myDist := clockwiseDist(req.Key, topology.HashPos(p.ID))
	best := p.ID
	bestDist := myDist
	for _, u := range p.Neighbors() {
		if d := clockwiseDist(req.Key, topology.HashPos(u)); d < bestDist {
			best = u
			bestDist = d
		}
	}
	if best == p.ID {
		// No neighbor is closer to the key: I am (locally) the owner.
		run := b.proto.runs[req.Key]
		if run != nil && run.result == nil {
			run.result = &Result{Key: req.Key, Owner: p.ID, Hops: req.Hops, At: int64(p.Now())}
			p.Mark(fmt.Sprintf("lookup.done:%d", req.Key))
		}
		return
	}
	p.Send(best, tagLookup, lookupMsg{
		Key: req.Key, Hops: req.Hops + 1, Budget: req.Budget - 1, Querier: req.Querier,
	})
}

// Launch starts a lookup for key at the given present origin, now.
func (l *Lookup) Launch(w *node.World, origin graph.NodeID, key uint64) *Run {
	p := w.Proc(origin)
	if p == nil {
		panic(fmt.Sprintf("lookup: origin %d not present", origin))
	}
	b, ok := node.FindBehavior[*lookupBehavior](p.Behavior())
	if !ok {
		panic("lookup: world was not built with this protocol's factory")
	}
	if l.runs == nil {
		l.runs = make(map[uint64]*Run)
	}
	if _, dup := l.runs[key]; dup {
		panic(fmt.Sprintf("lookup: key %d already being looked up", key))
	}
	run := &Run{}
	l.runs[key] = run
	b.route(p, lookupMsg{Key: key, Hops: 0, Budget: maxHops, Querier: origin})
	return run
}

// TrueOwner returns the member of `members` whose hash position is the
// successor of key — the ground-truth owner the checker compares against.
func TrueOwner(members []graph.NodeID, key uint64) graph.NodeID {
	if len(members) == 0 {
		return 0
	}
	best := members[0]
	bestDist := clockwiseDist(key, topology.HashPos(best))
	for _, u := range members[1:] {
		if d := clockwiseDist(key, topology.HashPos(u)); d < bestDist {
			best = u
			bestDist = d
		}
	}
	return best
}
