// Package broadcast implements reliable broadcast in a dynamic
// distributed system — the dissemination half of the paper's canonical
// problem, studied as a problem of its own by the same research group:
// a source broadcasts a message, and every entity that stays in the
// system from the broadcast onward must deliver it exactly once, despite
// entities joining and leaving while the message spreads.
//
// Two protocols span the trade the paper's analysis predicts:
//
//   - Flood: each member forwards the message once to its neighbors on
//     first receipt. Message-optimal and fast, but a relay that departs
//     mid-dissemination silently cuts off whatever only it would have
//     reached — delivery to stable members is not guaranteed under churn.
//   - AntiEntropy: members that hold the message periodically offer it to
//     every current neighbor that has not yet ACKNOWLEDGED it — including
//     neighbors gained later through churn repairs, and offers lost to
//     message drops, which are simply re-sent next period. Costlier, but
//     on an overlay that stays connected every stable member eventually
//     delivers, under churn and loss alike.
//
// The Check function judges a run from the ground-truth trace: stable
// coverage (the delivery obligation), duplicate deliveries (Integrity)
// and delivery latency.
package broadcast

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// Message tag and trace mark prefixes.
const (
	tagMsg = "bcast.msg"
	tagAck = "bcast.ack"

	markSend    = "bcast.send"
	markDeliver = "bcast.deliver"
)

// Broadcast configures one dissemination. A Broadcast value drives a
// single world and a single message.
type Broadcast struct {
	// AntiEntropy switches from forward-once flooding to periodic
	// offers that also reach neighbors gained after the first pass.
	AntiEntropy bool
	// SpreadInterval is the anti-entropy period. Default 4.
	SpreadInterval sim.Time

	launched bool
}

func (bc *Broadcast) spreadInterval() sim.Time {
	if bc.SpreadInterval > 0 {
		return bc.SpreadInterval
	}
	return 4
}

// maxTicks bounds each member's anti-entropy activity.
const maxTicks = 2000

type bcastBehavior struct {
	proto   *Broadcast
	has     bool
	payload float64
	// acked marks neighbors known to hold the message: they confirmed an
	// offer, or they are the one we got the message from.
	acked map[graph.NodeID]bool
	ticks int
}

// Factory returns the behaviour factory for worlds hosting the broadcast.
func (bc *Broadcast) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior {
		return &bcastBehavior{proto: bc, acked: make(map[graph.NodeID]bool)}
	}
}

func (b *bcastBehavior) Init(*node.Proc) {}

func (b *bcastBehavior) Receive(p *node.Proc, m node.Message) {
	switch m.Tag {
	case tagMsg:
		if b.proto.AntiEntropy {
			// Confirm every offer, even duplicates: the sender keeps
			// re-offering until an acknowledgment survives the channel.
			p.Send(m.From, tagAck, nil)
			b.acked[m.From] = true
		}
		if !b.has {
			b.deliver(p, m.Payload.(float64), m.From)
		}
	case tagAck:
		b.acked[m.From] = true
	}
}

// deliver marks the first receipt and starts forwarding. exclude is the
// entity the message arrived from (zero for the source).
func (b *bcastBehavior) deliver(p *node.Proc, payload float64, exclude graph.NodeID) {
	b.has = true
	b.payload = payload
	p.Mark(markDeliver)
	if b.proto.AntiEntropy {
		b.acked[exclude] = true
		b.tick(p)
		return
	}
	for _, u := range p.Neighbors() {
		if u != exclude {
			p.Send(u, tagMsg, payload)
		}
	}
}

func (b *bcastBehavior) tick(p *node.Proc) {
	b.ticks++
	if b.ticks > maxTicks {
		return
	}
	for _, u := range p.Neighbors() {
		if !b.acked[u] {
			p.Send(u, tagMsg, b.payload)
		}
	}
	p.After(b.proto.spreadInterval(), func() { b.tick(p) })
}

// Launch broadcasts payload from the given present source, now.
func (bc *Broadcast) Launch(w *node.World, source graph.NodeID, payload float64) {
	if bc.launched {
		panic("broadcast: launched twice")
	}
	p := w.Proc(source)
	if p == nil {
		panic(fmt.Sprintf("broadcast: source %d not present", source))
	}
	b, ok := node.FindBehavior[*bcastBehavior](p.Behavior())
	if !ok {
		panic("broadcast: world was not built with this broadcast's factory")
	}
	bc.launched = true
	p.Mark(markSend)
	b.deliver(p, payload, p.ID)
}

// Report is the checker's judgment of one dissemination.
type Report struct {
	// SentAt is the broadcast time (-1 if no send mark was found).
	SentAt core.Time
	// StableCount is the number of entities present from the send to the
	// end of the run — the entities obligated to deliver.
	StableCount int
	// DeliveredStable counts obligated entities that delivered.
	DeliveredStable int
	// DeliveredOther counts deliveries by non-obligated entities
	// (late joiners, early leavers) — allowed, not required.
	DeliveredOther int
	// Duplicates counts entities that delivered more than once
	// (Integrity violations).
	Duplicates int
	// Latencies holds delivery delays of obligated entities, sorted.
	Latencies []core.Time
}

// Coverage returns DeliveredStable / StableCount (1 when no obligation).
func (r Report) Coverage() float64 {
	if r.StableCount == 0 {
		return 1
	}
	return float64(r.DeliveredStable) / float64(r.StableCount)
}

// OK reports whether the delivery obligation and Integrity both held.
func (r Report) OK() bool {
	return r.SentAt >= 0 && r.DeliveredStable == r.StableCount && r.Duplicates == 0
}

// LatencyP returns the p-th percentile delivery latency among obligated
// entities (-1 when none delivered).
func (r Report) LatencyP(p float64) core.Time {
	if len(r.Latencies) == 0 {
		return -1
	}
	idx := int(p / 100 * float64(len(r.Latencies)-1))
	return r.Latencies[idx]
}

// Check judges the dissemination against the recorded run.
func Check(tr *core.Trace) Report {
	rep := Report{SentAt: -1}
	deliveredAt := make(map[graph.NodeID]core.Time)
	tr.Replay(func(ev core.TraceEvent) {
		if ev.Kind != core.TMark {
			return
		}
		switch {
		case ev.Tag == markSend:
			if rep.SentAt < 0 {
				rep.SentAt = ev.At
			}
		case strings.HasPrefix(ev.Tag, markDeliver):
			if _, dup := deliveredAt[ev.P]; dup {
				rep.Duplicates++
				return
			}
			deliveredAt[ev.P] = ev.At
		}
	})
	if rep.SentAt < 0 {
		return rep
	}
	stable := make(map[graph.NodeID]bool)
	for _, id := range tr.StableBetween(rep.SentAt, tr.End()) {
		stable[id] = true
	}
	rep.StableCount = len(stable)
	for id, at := range deliveredAt {
		if stable[id] {
			rep.DeliveredStable++
			rep.Latencies = append(rep.Latencies, at-rep.SentAt)
		} else {
			rep.DeliveredOther++
		}
	}
	sort.Slice(rep.Latencies, func(i, j int) bool { return rep.Latencies[i] < rep.Latencies[j] })
	return rep
}
