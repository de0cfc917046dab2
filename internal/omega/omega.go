// Package omega implements an eventual leader elector (the failure
// detector Ω) for the simulated dynamic system — the problem this
// paper's authors took up next: can the entities of a churning system
// eventually agree on one of them?
//
// The construction is heartbeat diffusion: every member timestamps itself
// and gossips its freshness table to its neighbors; everyone trusts the
// entities heard from recently and elects the smallest-identity trusted
// entity. In a run that eventually stabilizes, freshness tables converge
// across the (connected) membership and every member elects the same,
// present entity — Ω's eventual agreement. Under perpetual churn the
// elected identity keeps changing as leaders leave: the demotion count is
// the instability the class imposes, not a protocol defect.
package omega

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TagDigest is the elector's message tag.
const TagDigest = "omega.digest"

type digestMsg struct {
	LastSeen map[graph.NodeID]sim.Time
}

// Fingerprint implements node.Fingerprinter: the entry count, then the
// sum of one mixed word per entry, so map order cannot matter.
func (m digestMsg) Fingerprint() uint64 {
	const fpDigest = 0xc54cb0e4bd1aa3f1
	var sum uint64
	for id, t := range m.LastSeen {
		sum += rng.Mix64(rng.Mix64(uint64(id)) + uint64(t))
	}
	return rng.Mix64(rng.Mix64(fpDigest^uint64(len(m.LastSeen))) ^ sum)
}

// Elector is the factory-level configuration.
type Elector struct {
	// Beat is the heartbeat/gossip period. Default 5.
	Beat sim.Time
	// Timeout is the freshness horizon: entities not heard from for
	// longer are distrusted. A heartbeat ages roughly one Beat (plus
	// latency) per overlay hop while diffusing, so Timeout must exceed
	// Beat times the overlay diameter or distant members will never
	// trust each other. Default 6x Beat — enough only for low-diameter
	// overlays.
	Timeout sim.Time
}

// maxTicks bounds each member's activity (safety valve).
const maxTicks = 100000

func (e *Elector) beat() sim.Time {
	if e.Beat > 0 {
		return e.Beat
	}
	return 5
}

func (e *Elector) timeout() sim.Time {
	if e.Timeout > 0 {
		return e.Timeout
	}
	return 6 * e.beat()
}

// Member is one entity's elector module.
type Member struct {
	cfg      *Elector
	lastSeen map[graph.NodeID]sim.Time
	ticks    int
	// demotions counts leader identity changes observed locally.
	demotions  int
	lastLeader graph.NodeID
	now        func() sim.Time
}

// Behavior returns a fresh per-entity elector.
func (e *Elector) Behavior() *Member {
	return &Member{cfg: e, lastSeen: make(map[graph.NodeID]sim.Time)}
}

// Factory returns a node.BehaviorFactory running only the elector.
func (e *Elector) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior { return e.Behavior() }
}

// Init implements node.Behavior.
func (m *Member) Init(p *node.Proc) {
	m.now = p.Now
	m.tick(p)
}

// Receive implements node.Behavior: merge the sender's freshness table.
func (m *Member) Receive(p *node.Proc, msg node.Message) {
	if msg.Tag != TagDigest {
		return
	}
	d := msg.Payload.(digestMsg)
	for id, at := range d.LastSeen {
		if at > m.lastSeen[id] {
			m.lastSeen[id] = at
		}
	}
	m.trackLeader()
}

func (m *Member) tick(p *node.Proc) {
	m.ticks++
	if m.ticks > maxTicks {
		return
	}
	now := p.Now()
	m.lastSeen[p.ID] = now
	// Prune entries far beyond the horizon so tables do not grow with the
	// run's total arrivals.
	for id, at := range m.lastSeen {
		if now-at > 4*m.cfg.timeout() {
			delete(m.lastSeen, id)
		}
	}
	digest := make(map[graph.NodeID]sim.Time, len(m.lastSeen))
	for id, at := range m.lastSeen {
		digest[id] = at
	}
	p.Broadcast(TagDigest, digestMsg{LastSeen: digest})
	m.trackLeader()
	p.After(m.cfg.beat(), func() { m.tick(p) })
}

func (m *Member) trackLeader() {
	if l, ok := m.leaderAt(m.now()); ok && l != m.lastLeader {
		if m.lastLeader != 0 {
			m.demotions++
		}
		m.lastLeader = l
	}
}

// Leader returns the member's current choice: the smallest-identity
// entity heard from within the timeout. ok is false before anything was
// heard (never in practice: a member always trusts itself).
func (m *Member) Leader() (graph.NodeID, bool) { return m.leaderAt(m.now()) }

func (m *Member) leaderAt(now sim.Time) (graph.NodeID, bool) {
	ids := make([]graph.NodeID, 0, len(m.lastSeen))
	for id, at := range m.lastSeen {
		if now-at <= m.cfg.timeout() {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0, false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[0], true
}

// Demotions returns how many leader changes this member observed.
func (m *Member) Demotions() int { return m.demotions }

// Agreement polls every present member of the world and returns the most
// common leader choice and the fraction of members choosing it.
func Agreement(w *node.World) (graph.NodeID, float64) {
	votes := map[graph.NodeID]int{}
	total := 0
	for _, id := range w.Present() {
		m, ok := node.FindBehavior[*Member](w.Proc(id).Behavior())
		if !ok {
			continue
		}
		if l, ok := m.Leader(); ok {
			votes[l]++
			total++
		}
	}
	if total == 0 {
		return 0, 0
	}
	var best graph.NodeID
	bestN := -1
	ids := make([]graph.NodeID, 0, len(votes))
	for id := range votes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if votes[id] > bestN {
			best = id
			bestN = votes[id]
		}
	}
	return best, float64(bestN) / float64(total)
}
