package otq

import (
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// Message tags of the tree-echo protocol.
const (
	tagTreeQuery = "otq.tree-query"
	tagTreeEcho  = "otq.tree-echo"
)

type treeEchoMsg struct {
	Contrib []contrib
}

// TreeEcho is the textbook echo algorithm (propagation of information
// with feedback): the query wave builds a spanning tree via parent
// pointers, every node waits for an echo from each child it forwarded to,
// and echoes its aggregated subtree upward once all children answered.
// The querier terminates exactly when the wave has collapsed back onto
// it — no diameter bound, no timeout tuning.
//
// Its contract is the sharpest illustration of the paper's static/dynamic
// divide: in a static system it is exact and message-optimal, but a
// single departed child silently swallows an echo and deadlocks the whole
// wave. DetectDepartures writes off pending children that are no longer
// neighbors (the overlay's repair makes departures locally observable),
// which restores Termination under churn at the price of Validity: the
// written-off child's collected subtree is simply lost. Only announced
// leaves are observable that way: a child that CRASHED leaves its edges
// stale, stays a neighbor, and still deadlocks the wave.
//
// A TreeEcho value drives a single world and a single query.
type TreeEcho struct {
	// DetectDepartures enables writing off pending children that left.
	DetectDepartures bool
	// CheckInterval is how often pending children are re-examined when
	// DetectDepartures is on. Default 5.
	CheckInterval sim.Time

	run *Run
}

// Name implements Protocol.
func (*TreeEcho) Name() string { return "tree-echo" }

// treeMaxChecks bounds the re-examination ticks per node.
const treeMaxChecks = 1000

type treeEchoBehavior struct {
	proto     *TreeEcho
	seen      bool
	echoed    bool
	parent    graph.NodeID
	pending   map[graph.NodeID]bool
	collected map[graph.NodeID]float64
	checks    int
	isQuerier bool
}

// Factory implements Protocol.
func (te *TreeEcho) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior { return &treeEchoBehavior{proto: te} }
}

func (b *treeEchoBehavior) Init(*node.Proc) {}

func (b *treeEchoBehavior) Receive(p *node.Proc, m node.Message) {
	switch m.Tag {
	case tagTreeQuery:
		b.onQuery(p, m.From)
	case tagTreeEcho:
		b.onEcho(p, m.From, m.Payload.(treeEchoMsg))
	}
}

func (b *treeEchoBehavior) onQuery(p *node.Proc, from graph.NodeID) {
	if b.seen {
		// Non-tree edge: immediately release the sender with an empty
		// echo so it does not wait for me as a child.
		p.Send(from, tagTreeEcho, treeEchoMsg{})
		return
	}
	b.start(p, from, false)
}

// start activates the node: parent pointer, own contribution, forward the
// wave. querier marks the root (its own parent is itself).
func (b *treeEchoBehavior) start(p *node.Proc, parent graph.NodeID, querier bool) {
	b.seen = true
	b.isQuerier = querier
	b.parent = parent
	b.collected = map[graph.NodeID]float64{p.ID: p.Value}
	b.pending = make(map[graph.NodeID]bool)
	for _, u := range p.Neighbors() {
		if u == parent && !querier {
			continue
		}
		b.pending[u] = true
		p.Send(u, tagTreeQuery, queryMsg{})
	}
	if b.proto.DetectDepartures {
		b.scheduleCheck(p)
	}
	b.maybeComplete(p)
}

func (b *treeEchoBehavior) onEcho(p *node.Proc, from graph.NodeID, msg treeEchoMsg) {
	if !b.seen || !b.pending[from] {
		return // stray echo (e.g. from a wave I never joined)
	}
	delete(b.pending, from)
	for _, c := range msg.Contrib {
		b.collected[c.ID] = c.V
	}
	b.maybeComplete(p)
}

func (b *treeEchoBehavior) maybeComplete(p *node.Proc) {
	if b.echoed || len(b.pending) > 0 {
		return
	}
	b.echoed = true
	if b.isQuerier {
		p.Mark("otq.answer")
		b.proto.run.resolve(int64(p.Now()), b.collected)
		return
	}
	echo := make([]contrib, 0, len(b.collected))
	for id, v := range b.collected {
		echo = append(echo, contrib{id, v})
	}
	p.Send(b.parent, tagTreeEcho, treeEchoMsg{Contrib: echo})
}

func (b *treeEchoBehavior) scheduleCheck(p *node.Proc) {
	b.checks++
	if b.checks > treeMaxChecks || b.echoed {
		return
	}
	p.After(orDefault(b.proto.CheckInterval, 5), func() {
		if b.echoed {
			return
		}
		nbrs := make(map[graph.NodeID]bool)
		for _, u := range p.Neighbors() {
			nbrs[u] = true
		}
		for child := range b.pending {
			if !nbrs[child] {
				// The child left: its echo, and its whole collected
				// subtree, are gone. Write it off so the wave collapses.
				delete(b.pending, child)
			}
		}
		b.maybeComplete(p)
		b.scheduleCheck(p)
	})
}

// Launch implements Protocol.
func (te *TreeEcho) Launch(w *node.World, querier graph.NodeID) *Run {
	p, b, run := launchAt[*treeEchoBehavior]("TreeEcho", te.run != nil, w, querier)
	te.run = run
	b.start(p, querier, true)
	return run
}

// treeEchoSnapshot is the crash-survivable state of a tree-echo entity.
type treeEchoSnapshot struct {
	seen      bool
	echoed    bool
	parent    graph.NodeID
	pending   map[graph.NodeID]bool
	collected map[graph.NodeID]float64
	isQuerier bool
}

// Snapshot implements node.Recoverable.
func (b *treeEchoBehavior) Snapshot() any {
	s := treeEchoSnapshot{
		seen:      b.seen,
		echoed:    b.echoed,
		parent:    b.parent,
		isQuerier: b.isQuerier,
	}
	if b.pending != nil {
		s.pending = make(map[graph.NodeID]bool, len(b.pending))
		for k, v := range b.pending {
			s.pending[k] = v
		}
	}
	if b.collected != nil {
		s.collected = copyContrib(b.collected)
	}
	return s
}

// Restore implements node.Recoverable: the entity rejoins the wave where
// the crash interrupted it — parent pointer, pending children and the
// collected subtree come back from stable storage; the departure-check
// budget restarts. Echoes its children sent INTO the gap were dropped
// with the crashed entity, so collapsing the wave across a gap needs
// either retrying channels (the reliable sublayer) or departure
// detection to write the silent children off.
func (b *treeEchoBehavior) Restore(p *node.Proc, snap any) {
	s := snap.(treeEchoSnapshot)
	b.seen = s.seen
	b.echoed = s.echoed
	b.parent = s.parent
	b.pending = s.pending
	b.collected = s.collected
	b.isQuerier = s.isQuerier
	if b.seen && !b.echoed {
		if b.proto.DetectDepartures {
			b.scheduleCheck(p)
		}
		b.maybeComplete(p)
	}
}
