// Package fault is the deterministic fault-injection engine: a Plan is a
// seedable, composable schedule of typed fault clauses that attaches to a
// node.World through its channel and lifecycle hooks. Every injected
// fault is recorded in the run's ground-truth trace, and the same plan
// under the same seed replays the identical fault sequence — impairment
// scenarios become first-class, scriptable experiment inputs instead of a
// pair of global knobs.
//
// Clause kinds and what dimension of adversity each exercises:
//
//   - duplicate: each transmission is delivered in extra copies with
//     probability P — at-least-once channels, exposing protocols that
//     assume at-most-once delivery.
//   - burst: a Gilbert–Elliott two-state channel (good/bad) stepped per
//     transmission; the bad state's loss rate models correlated loss
//     bursts that an independent coin (node.Config.LossRate) cannot.
//   - reorder: with probability P a copy is held back up to Window extra
//     ticks, overtaking later traffic on non-FIFO channels.
//   - spike: every transmission touching one of the chosen nodes gains a
//     fixed extra Delay — a slow or overloaded region of the system.
//   - blackout: all traffic on one DIRECTED pair is dropped during the
//     window — a transient asymmetric partition below the overlay's
//     radar (links stay up, packets die).
//   - crash: the chosen nodes crash silently at the window start and, if
//     RecoverAfter is set, recover with their stable-storage state that
//     many ticks later (node.Recover).
//   - rejoin: the chosen nodes announce a Leave at the window start and
//     Join again Down ticks later, re-linking to the neighbors they had —
//     the churn-laundering surface. Reset makes each victim first shed
//     its durable identity record (the deliberate laundering attempt
//     against durable identities); Sybil makes victim i come back under
//     the fresh identity Sybil+i instead of its own (Douceur's cheap-
//     identity control arm: nothing to launder, nothing to inherit).
//   - reconfig: the chosen initiators drive live protocol-stack
//     reconfiguration rounds (node.World.Reconfigure). Each round builds
//     a target epoch from the initiator's current stack — rotating the
//     pair keys (rotate), flipping the RTO policy (adaptive), toggling
//     identity durability (durable), or alternating the audit retention
//     cap / pull fanout between the given value and genesis (retain,
//     fanout) — and runs the quiescence handshake. One round is a timed
//     reconfiguration; count=N with every=T is a reconfig storm.
//     Composes with rejoin/equiv/collude: the handshake must never
//     launder the quarantines and convictions those clauses earn.
//
// The Byzantine clauses model an adversary on the wire or in a sender:
//
//   - corrupt: with probability P, a transmission's payload is tampered
//     with in flight (node.Tamperable), after any authentication tag was
//     applied — an authenticating receiver rejects it, a raw one accepts
//     the forged value.
//   - replay: with probability P, an extra copy of the unmodified wire
//     message is delivered 1..Window extra ticks later — its tag still
//     verifies but its sequence number is stale.
//   - forge: with probability P, the transmission's claimed sender is
//     rewritten to As — the forged claim does not hold the claimed
//     pair's key, and the blame lands on the innocent As.
//   - equiv: the chosen senders equivocate — copies of a logical
//     broadcast bound for the listed Peers are tampered BEFORE the
//     authentication layer tags them, so the lies carry valid tags;
//     per-pair authentication cannot catch a sender that signs its own
//     lies.
//   - collude: the equivocation sharpened against the audit sublayer's
//     geography. The chosen senders partition their Peers into Groups
//     victim sets: every victim in one group receives the IDENTICAL lie
//     (so no victim ever self-conflicts), different groups receive
//     divergent lies, and all traffic from the sender to anyone OUTSIDE
//     Peers is silenced (acks excepted) — no honest witness ever holds a
//     receipt to compare. Unless two victims of different groups are
//     adjacent, 1-hop receipt gossip can never bring the conflicting
//     pair together; convicting needs the audit layer's pull
//     anti-entropy. Chaff > 0 additionally schedules that many rounds of
//     fresh honest broadcasts to the victims (every ChaffEvery ticks,
//     starting at ChaffFrom when set), cycling broadcast numbers to push
//     the contested receipts out of a bounded FIFO store — the retention
//     attack named in ROADMAP.
//   - poison: the membership attack. With probability Rate (key rate),
//     each PEX exchange a chosen sender ships is rewritten in its wire
//     bytes before tagging: Sybils fabricated records of never-joined
//     identities (base, base+1, ...), Dead resurrected records of
//     departed members with forged freshness, and — when Target is set —
//     the sender's genuine record of the target replayed with its hop
//     age reset to 0 (the hub bias, valid even under the view-audit
//     defense because hop is deliberately outside the signature).
//     Undefended views absorb all of it; the defense rejects the forged
//     signatures and quarantines the injector through the auth layer.
//
// Channel clauses compose: each active clause inspects every transmission
// in plan order, and their verdicts accumulate (drops win, delays and
// duplicates add).
package fault

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Kind discriminates fault clauses.
type Kind string

// Clause kinds.
const (
	KindDuplicate Kind = "dup"
	KindBurst     Kind = "burst"
	KindReorder   Kind = "reorder"
	KindSpike     Kind = "spike"
	KindBlackout  Kind = "blackout"
	KindCrash     Kind = "crash"
	KindRejoin    Kind = "rejoin"
	KindReconfig  Kind = "reconfig"
	KindCorrupt   Kind = "corrupt"
	KindReplay    Kind = "replay"
	KindForge     Kind = "forge"
	KindEquiv     Kind = "equiv"
	KindCollude   Kind = "collude"
	KindPoison    Kind = "poison"
)

// ChaffTag tags the honest filler broadcasts a collude clause's Chaff
// schedule sends to its victims. Behaviors ignore the tag; the audit
// sublayer still stamps and receipts it, which is the attack.
const ChaffTag = "fault.chaff"

// Trace mark tags recorded at injection time (subject entity: the sender
// for channel faults, the victim for lifecycle faults — the crash and
// recovery themselves additionally appear as core.MarkCrash/MarkRecover
// via the node runtime).
const (
	MarkDuplicate = "fault.dup"
	MarkBurst     = "fault.burst"
	MarkReorder   = "fault.reorder"
	MarkSpike     = "fault.spike"
	MarkBlackout  = "fault.blackout"
	MarkCorrupt   = "fault.corrupt"
	MarkReplay    = "fault.replay"
	MarkForge     = "fault.forge"
	MarkEquiv     = "fault.equiv"
	MarkCollude   = "fault.collude"
	MarkPoison    = "fault.poison"
	// MarkRejoin is the INJECTION mark, recorded at the victim when the
	// clause takes it down; the runtime's own core.MarkRejoin flanks the
	// later Join (or doesn't, in the sybil arm — a fresh identity is a
	// first arrival as far as the ground truth can see).
	MarkRejoin = "fault.rejoin"
	// MarkReconfig is recorded at the initiator as each reconfiguration
	// round is injected; the runtime's own core.MarkEpochSwitch then
	// appears at every node that completes the switch.
	MarkReconfig = "fault.reconfig"
)

// Clause is one typed fault with an activity window. Fields are
// kind-specific; Validate rejects meaningless combinations.
type Clause struct {
	Kind Kind `json:"kind"`
	// From and To bound the active window [From, To); To = 0 leaves the
	// window open-ended. Crash clauses fire once, at From.
	From sim.Time `json:"from,omitempty"`
	To   sim.Time `json:"to,omitempty"`
	// P is the per-transmission probability (duplicate, reorder, and the
	// Byzantine kinds).
	P float64 `json:"p,omitempty"`
	// Count is the number of extra copies per duplication. Default 1.
	Count int `json:"count,omitempty"`
	// Window is the maximum extra holding delay of a reorder, or the
	// maximum extra lag of a replayed copy (default 8), in ticks.
	Window sim.Time `json:"window,omitempty"`
	// Delay is the fixed extra latency of a spike, in ticks.
	Delay sim.Time `json:"delay,omitempty"`
	// Nodes are the spike or crash victims, or the misbehaving senders of
	// a Byzantine clause. An empty list means every node (equiv requires
	// an explicit list).
	Nodes []graph.NodeID `json:"nodes,omitempty"`
	// Pair is the blackout's directed (from, to) pair.
	Pair *[2]graph.NodeID `json:"pair,omitempty"`
	// PGB and PBG are the Gilbert–Elliott good→bad and bad→good
	// transition probabilities, stepped once per inspected transmission.
	PGB float64 `json:"pgb,omitempty"`
	PBG float64 `json:"pbg,omitempty"`
	// LossGood and LossBad are the per-state drop probabilities.
	// LossBad defaults to 1 (the bad state kills everything).
	LossGood float64  `json:"lossgood,omitempty"`
	LossBad  *float64 `json:"lossbad,omitempty"`
	// RecoverAfter, on a crash clause, recovers the victims that many
	// ticks after the crash; 0 means they stay down.
	RecoverAfter sim.Time `json:"recover,omitempty"`
	// Down, on a rejoin clause, is how long each victim stays out between
	// its announced leave and its rejoin, in ticks.
	Down sim.Time `json:"down,omitempty"`
	// Reset, on a rejoin clause, makes each victim shed its persisted
	// identity record before rejoining — the deliberate laundering
	// attempt. Under session keying it changes nothing (there is no
	// record); under durable identities it restarts the victim's own
	// counters while PEERS keep their memory, so the "cleaned" rejoiner
	// walks straight into its old anti-replay windows.
	Reset bool `json:"reset,omitempty"`
	// Sybil, on a rejoin clause, makes victim i rejoin under the fresh
	// identity Sybil+i instead of its own — the cheap-identity control
	// arm. 0 means victims return as themselves.
	Sybil graph.NodeID `json:"sybil,omitempty"`
	// Every, on a reconfig clause, is the tick spacing between storm
	// rounds (round r fires at From + r·Every). Required when Count > 1.
	Every sim.Time `json:"every,omitempty"`
	// Rotate, on a reconfig clause, advances the pair-key epoch each
	// round — live key rotation under traffic.
	Rotate bool `json:"rotate,omitempty"`
	// AdaptiveFlip, on a reconfig clause, toggles the retransmission
	// policy (fixed↔adaptive RTO) each round.
	AdaptiveFlip bool `json:"adaptive,omitempty"`
	// DurableFlip, on a reconfig clause, toggles identity durability each
	// round. Deliberate session-semantics laundering surface: compose
	// with care (a departure under a session epoch legitimately forgets).
	DurableFlip bool `json:"durable,omitempty"`
	// RetainTo, on a reconfig clause, alternates the audit retention cap
	// between this value and the genesis cap each round; 0 leaves it.
	RetainTo int `json:"retainto,omitempty"`
	// FanoutTo likewise alternates the audit pull fanout; 0 leaves it.
	FanoutTo int `json:"fanoutto,omitempty"`
	// DropPull, on a collude clause, additionally silences the colluders'
	// own audit pull digests and responses toward EVERYONE (their victims
	// included): an uncooperative relay that equivocates but never
	// answers anti-entropy. Conviction must then travel between honest
	// holders without the colluder's help.
	DropPull bool `json:"droppull,omitempty"`
	// As is the sender a forge clause claims its transmissions came from.
	As *graph.NodeID `json:"as,omitempty"`
	// Peers are the destinations an equiv clause sends its divergent
	// copies to; everyone else receives the honest copy. For collude,
	// Peers are the victims, partitioned into Groups.
	Peers []graph.NodeID `json:"peers,omitempty"`
	// Groups is the number of victim partitions of a collude clause
	// (victims are assigned round-robin by their position in Peers).
	// 0 means the default of 2.
	Groups int `json:"groups,omitempty"`
	// Chaff, on a collude clause, schedules that many rounds of honest
	// filler broadcasts from each colluding sender to its victims,
	// starting at the window's From; 0 disables.
	Chaff int `json:"chaff,omitempty"`
	// ChaffFrom is the absolute tick the first chaff round fires at; 0
	// starts right after the clause window opens. Decoupled from the
	// window so the flood can be aimed at receipts already in store (the
	// eviction attack) without delaying the lies themselves.
	ChaffFrom sim.Time `json:"chafffrom,omitempty"`
	// ChaffEvery is the tick spacing of chaff rounds. 0 means the
	// default of 2.
	ChaffEvery sim.Time `json:"chaffevery,omitempty"`
	// Sybils, on a poison clause, is how many fabricated never-joined
	// identities are injected per poisoned exchange, numbered Sybil,
	// Sybil+1, ... (the rejoin clause's Sybil field doubles as the base;
	// DSL key base).
	Sybils int `json:"sybils,omitempty"`
	// Dead, on a poison clause, is how many departed identities are
	// resurrected per poisoned exchange, freshest-forged first.
	Dead int `json:"dead,omitempty"`
	// Target, on a poison clause, is the member whose genuine record the
	// poisoner replays with hop reset to 0 — the hub bias. 0 disables.
	Target graph.NodeID `json:"target,omitempty"`
}

func probability(name string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("fault: %s %v outside [0, 1]", name, p)
	}
	return nil
}

// Validate reports the first problem with the clause, or nil.
func (c *Clause) Validate() error {
	if c.From < 0 || c.To < 0 {
		return fmt.Errorf("fault: negative window [%d, %d)", c.From, c.To)
	}
	if c.To != 0 && c.To <= c.From {
		return fmt.Errorf("fault: empty window [%d, %d)", c.From, c.To)
	}
	switch c.Kind {
	case KindDuplicate:
		if err := probability("dup p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: dup clause with p=0 never fires")
		}
		if c.Count < 0 {
			return fmt.Errorf("fault: negative dup count %d", c.Count)
		}
	case KindBurst:
		if err := probability("burst pgb", c.PGB); err != nil {
			return err
		}
		if err := probability("burst pbg", c.PBG); err != nil {
			return err
		}
		if err := probability("burst lossgood", c.LossGood); err != nil {
			return err
		}
		if c.LossBad != nil {
			if err := probability("burst lossbad", *c.LossBad); err != nil {
				return err
			}
		}
		if c.PGB == 0 && c.LossGood == 0 {
			return fmt.Errorf("fault: burst clause that can never leave the lossless good state")
		}
	case KindReorder:
		if err := probability("reorder p", c.P); err != nil {
			return err
		}
		if c.P == 0 || c.Window <= 0 {
			return fmt.Errorf("fault: reorder clause needs p > 0 and window > 0")
		}
	case KindSpike:
		if c.Delay <= 0 {
			return fmt.Errorf("fault: spike clause needs delay > 0")
		}
	case KindBlackout:
		if c.Pair == nil {
			return fmt.Errorf("fault: blackout clause needs a directed pair")
		}
		if c.Pair[0] == c.Pair[1] {
			return fmt.Errorf("fault: blackout pair is a self-loop on %d", c.Pair[0])
		}
	case KindCrash:
		if len(c.Nodes) == 0 {
			return fmt.Errorf("fault: crash clause needs victims")
		}
		if c.RecoverAfter < 0 {
			return fmt.Errorf("fault: negative crash recovery delay %d", c.RecoverAfter)
		}
	case KindRejoin:
		if len(c.Nodes) == 0 {
			return fmt.Errorf("fault: rejoin clause needs victims")
		}
		if c.Down <= 0 {
			return fmt.Errorf("fault: rejoin clause needs down > 0")
		}
		if c.Sybil < 0 || int64(c.Sybil)+int64(len(c.Nodes)) > int64(graph.MaxNodeID)+1 {
			return fmt.Errorf("fault: rejoin sybil identities from %d run outside [0, %d]", c.Sybil, graph.MaxNodeID)
		}
		if c.Sybil != 0 && c.Reset {
			return fmt.Errorf("fault: rejoin sybil arm has no record to reset")
		}
	case KindReconfig:
		if !c.Rotate && !c.AdaptiveFlip && !c.DurableFlip && c.RetainTo == 0 && c.FanoutTo == 0 {
			return fmt.Errorf("fault: reconfig clause changes nothing (needs rotate, adaptive, durable, retain, or fanout)")
		}
		if c.Count < 0 {
			return fmt.Errorf("fault: negative reconfig round count %d", c.Count)
		}
		if c.Every < 0 {
			return fmt.Errorf("fault: negative reconfig spacing %d", c.Every)
		}
		if c.Count > 1 && c.Every == 0 {
			return fmt.Errorf("fault: reconfig storm of %d rounds needs every > 0", c.Count)
		}
		if c.RetainTo < 0 {
			return fmt.Errorf("fault: negative reconfig retain target %d", c.RetainTo)
		}
		if c.FanoutTo < 0 {
			return fmt.Errorf("fault: negative reconfig fanout target %d", c.FanoutTo)
		}
	case KindCorrupt:
		if err := probability("corrupt p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: corrupt clause with p=0 never fires")
		}
	case KindReplay:
		if err := probability("replay p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: replay clause with p=0 never fires")
		}
		if c.Window < 0 {
			return fmt.Errorf("fault: negative replay window %d", c.Window)
		}
	case KindForge:
		if err := probability("forge p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: forge clause with p=0 never fires")
		}
		if c.As == nil {
			return fmt.Errorf("fault: forge clause needs a claimed sender (as=)")
		}
	case KindEquiv:
		if err := probability("equiv p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: equiv clause with p=0 never fires")
		}
		if len(c.Nodes) == 0 {
			return fmt.Errorf("fault: equiv clause needs explicit equivocating senders")
		}
		if len(c.Peers) == 0 {
			return fmt.Errorf("fault: equiv clause needs the peers to lie to")
		}
	case KindCollude:
		if err := probability("collude p", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: collude clause with p=0 never fires")
		}
		if len(c.Nodes) == 0 {
			return fmt.Errorf("fault: collude clause needs explicit colluding senders")
		}
		if len(c.Peers) == 0 {
			return fmt.Errorf("fault: collude clause needs the victim peers")
		}
		if g := c.Groups; g != 0 && (g < 2 || g > len(c.Peers)) {
			return fmt.Errorf("fault: collude groups %d outside [2, %d]", g, len(c.Peers))
		}
		if c.Chaff < 0 {
			return fmt.Errorf("fault: negative collude chaff %d", c.Chaff)
		}
		if c.ChaffEvery < 0 {
			return fmt.Errorf("fault: negative collude chaffevery %d", c.ChaffEvery)
		}
		if c.ChaffFrom < 0 {
			return fmt.Errorf("fault: negative collude chafffrom %d", c.ChaffFrom)
		}
	case KindPoison:
		if err := probability("poison rate", c.P); err != nil {
			return err
		}
		if c.P == 0 {
			return fmt.Errorf("fault: poison clause with rate=0 never fires")
		}
		if len(c.Nodes) == 0 {
			return fmt.Errorf("fault: poison clause needs explicit poisoning senders")
		}
		if c.Sybils < 0 {
			return fmt.Errorf("fault: negative poison sybils %d", c.Sybils)
		}
		if c.Dead < 0 {
			return fmt.Errorf("fault: negative poison dead %d", c.Dead)
		}
		if c.Sybils == 0 && c.Dead == 0 && c.Target == 0 {
			return fmt.Errorf("fault: poison clause injects nothing (needs sybils, dead, or target)")
		}
		if c.Sybils > 0 && c.Sybil == 0 {
			return fmt.Errorf("fault: poison sybils need a base identity (base=)")
		}
		if c.Sybil < 0 || int64(c.Sybil)+int64(c.Sybils) > int64(graph.MaxNodeID)+1 {
			return fmt.Errorf("fault: poison sybil identities from %d run outside [0, %d]", c.Sybil, graph.MaxNodeID)
		}
		if c.Target < 0 {
			return fmt.Errorf("fault: negative poison target %d", c.Target)
		}
		if c.Sybils+c.Dead > pex.MaxWireRecords/2 {
			return fmt.Errorf("fault: poison injects %d records per exchange, over the %d wire headroom", c.Sybils+c.Dead, pex.MaxWireRecords/2)
		}
	default:
		return fmt.Errorf("fault: unknown clause kind %q", c.Kind)
	}
	return nil
}

// activeAt reports whether the clause's window contains t.
func (c *Clause) activeAt(t sim.Time) bool {
	return t >= c.From && (c.To == 0 || t < c.To)
}

// lossBad returns the bad-state drop probability (default 1).
func (c *Clause) lossBad() float64 {
	if c.LossBad != nil {
		return *c.LossBad
	}
	return 1
}

// matchesNode reports whether the clause's node list covers id.
func (c *Clause) matchesNode(id graph.NodeID) bool {
	if len(c.Nodes) == 0 {
		return true
	}
	for _, n := range c.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// matchesPeer reports whether an equiv clause lies to destination id.
func (c *Clause) matchesPeer(id graph.NodeID) bool {
	for _, n := range c.Peers {
		if n == id {
			return true
		}
	}
	return false
}

// groupOf maps a collude victim to its partition: round-robin by
// position in Peers over the effective group count.
func (c *Clause) groupOf(id graph.NodeID) int {
	g := c.Groups
	if g <= 0 {
		g = 2
	}
	for i, p := range c.Peers {
		if p == id {
			return i % g
		}
	}
	return 0
}

// Plan is a deterministic, seedable schedule of fault clauses.
type Plan struct {
	// Seed drives every random draw the plan makes, independently of the
	// world's own channel randomness. Zero is a valid seed.
	Seed uint64 `json:"seed,omitempty"`
	// Clauses apply in order; channel verdicts accumulate.
	Clauses []Clause `json:"clauses"`
}

// Validate reports the first problem with the plan, or nil.
func (pl *Plan) Validate() error {
	for i := range pl.Clauses {
		if err := pl.Clauses[i].Validate(); err != nil {
			return fmt.Errorf("clause %d: %w", i, err)
		}
	}
	return nil
}

// Attach activates the plan on the world: it installs the channel hook
// and schedules the lifecycle clauses. It panics on an invalid plan (use
// Validate first when the plan comes from user input). The returned stop
// function removes the hook and cancels pending lifecycle events.
//
// The plan must be attached to at most one world at a time, and before
// the clauses' windows open (clause times are absolute virtual times; a
// crash scheduled in the past fires immediately).
func (pl *Plan) Attach(w *node.World) (stop func()) {
	if err := pl.Validate(); err != nil {
		panic(err.Error())
	}
	e := &engine{plan: pl, r: rng.New(pl.Seed ^ 0xfa017a57), burstBad: make([]bool, len(pl.Clauses))}
	w.SetChannelHook(e.hook(w))
	for _, c := range pl.Clauses {
		if c.Kind == KindEquiv || c.Kind == KindCollude || c.Kind == KindPoison {
			w.SetSenderHook(e.senderHook(w))
			break
		}
	}
	var events []sim.Handle
	for i := range pl.Clauses {
		c := &pl.Clauses[i]
		switch c.Kind {
		case KindCrash:
			for _, id := range c.Nodes {
				id := id
				at := c.From
				if at < w.Engine.Now() {
					at = w.Engine.Now()
				}
				events = append(events, w.Engine.At(at, func() {
					if w.Proc(id) == nil {
						return // already gone; nothing to crash
					}
					w.Crash(id)
					if c.RecoverAfter > 0 {
						events = append(events, w.Engine.After(c.RecoverAfter, func() {
							if w.Proc(id) == nil {
								w.Recover(id)
							}
						}))
					}
				}))
			}
		case KindRejoin:
			for idx, id := range c.Nodes {
				idx, id := idx, id
				at := c.From
				if at < w.Engine.Now() {
					at = w.Engine.Now()
				}
				events = append(events, w.Engine.At(at, func() {
					p := w.Proc(id)
					if p == nil {
						return // already gone; nothing to churn
					}
					// Capture the victim's edges before the leave tears them
					// down: the rejoiner re-attaches to whoever of its old
					// neighborhood is still around.
					neighbors := append([]graph.NodeID(nil), p.Neighbors()...)
					w.Trace.Mark(int64(w.Engine.Now()), id, MarkRejoin)
					w.Leave(id)
					events = append(events, w.Engine.After(c.Down, func() {
						back := id
						if c.Sybil != 0 {
							back = c.Sybil + graph.NodeID(idx)
						}
						if w.Proc(back) != nil {
							return // identity came back some other way
						}
						if c.Reset {
							w.DropIdentityRecord(id)
						}
						w.Join(back)
						// Overlays that attach joiners themselves (ring, mesh)
						// have already re-created edges by their own policy;
						// only script-controlled overlays need the old
						// neighborhood re-created by direct link control.
						if _, manual := w.Overlay.(topology.LinkController); !manual {
							return
						}
						for _, u := range neighbors {
							if w.Proc(u) != nil && !w.Overlay.Graph().HasEdge(back, u) {
								w.SetLink(back, u, true)
							}
						}
					}))
				}))
			}
		case KindReconfig:
			if !w.ReconfigEnabled() {
				panic("fault: reconfig clause on a world without the reconfiguration layer (node.Config.Reconfig.Enabled)")
			}
			rounds := c.Count
			if rounds <= 0 {
				rounds = 1
			}
			for round := 0; round < rounds; round++ {
				round := round
				at := c.From + sim.Time(round)*c.Every
				if at < w.Engine.Now() {
					at = w.Engine.Now()
				}
				events = append(events, w.Engine.At(at, func() {
					init := e.reconfigInitiator(w, c, round)
					if init < 0 {
						return // nobody present to initiate this round
					}
					target := w.StackOf(init)
					genesis := w.GenesisStack()
					if c.Rotate {
						target.KeyEpoch++
					}
					if c.AdaptiveFlip {
						target.Adaptive = !target.Adaptive
					}
					if c.DurableFlip {
						target.Durable = !target.Durable
					}
					if c.RetainTo != 0 {
						if target.Retain == c.RetainTo {
							target.Retain = genesis.Retain
						} else {
							target.Retain = c.RetainTo
						}
					}
					if c.FanoutTo != 0 {
						if target.PullFanout == c.FanoutTo {
							target.PullFanout = genesis.PullFanout
						} else {
							target.PullFanout = c.FanoutTo
						}
					}
					w.Trace.Mark(int64(w.Engine.Now()), init, MarkReconfig)
					w.Reconfigure(init, target)
				}))
			}
		case KindCollude:
			if c.Chaff <= 0 {
				continue
			}
			every := c.ChaffEvery
			if every <= 0 {
				every = 2
			}
			start := c.ChaffFrom
			if start <= 0 {
				start = c.From + 1
			}
			for _, id := range c.Nodes {
				id := id
				for round := 0; round < c.Chaff; round++ {
					round := round
					at := start + sim.Time(round)*every
					if at < w.Engine.Now() {
						at = w.Engine.Now()
					}
					events = append(events, w.Engine.At(at, func() {
						p := w.Proc(id)
						if p == nil || !p.Alive() {
							return
						}
						// Distinct payload per round = fresh broadcast
						// number per round; both victims of one round share
						// it (one logical broadcast).
						for _, peer := range c.Peers {
							p.Send(peer, ChaffTag, round)
						}
					}))
				}
			}
		}
	}
	return func() {
		w.SetChannelHook(nil)
		w.SetSenderHook(nil)
		for _, ev := range events {
			ev.Cancel()
		}
	}
}

// engine is the per-attachment runtime state of a plan.
type engine struct {
	plan *Plan
	r    *rng.Rand
	// burstBad holds, per clause index, whether that burst clause's
	// Gilbert–Elliott chain is in the bad state.
	burstBad []bool
	// corrupt is the memoized tamper closure of corrupt verdicts.
	corrupt func(any) (any, bool)
}

// reconfigInitiator picks round r's initiator: the clause's listed nodes
// round-robin when given (falling back past absent ones), the lowest
// present node otherwise, -1 when nobody is present at all.
func (e *engine) reconfigInitiator(w *node.World, c *Clause, round int) graph.NodeID {
	if len(c.Nodes) > 0 {
		for off := 0; off < len(c.Nodes); off++ {
			id := c.Nodes[(round+off)%len(c.Nodes)]
			if w.Proc(id) != nil {
				return id
			}
		}
	}
	lowest := graph.NodeID(-1)
	for _, id := range w.Present() {
		if lowest < 0 || id < lowest {
			lowest = id
		}
	}
	return lowest
}

// hook builds the node.ChannelHook evaluating the channel clauses.
func (e *engine) hook(w *node.World) node.ChannelHook {
	return func(now sim.Time, from, to graph.NodeID, tag string) node.ChannelFault {
		var f node.ChannelFault
		t := core.Time(now)
		for i := range e.plan.Clauses {
			c := &e.plan.Clauses[i]
			if !c.activeAt(now) {
				continue
			}
			switch c.Kind {
			case KindDuplicate:
				if e.r.Bool(c.P) {
					n := c.Count
					if n <= 0 {
						n = 1
					}
					f.Duplicates += n
					w.Trace.Mark(t, from, MarkDuplicate)
				}
			case KindBurst:
				// Step the chain once per inspected transmission, then
				// apply the current state's loss rate.
				if e.burstBad[i] {
					if e.r.Bool(c.PBG) {
						e.burstBad[i] = false
					}
				} else if e.r.Bool(c.PGB) {
					e.burstBad[i] = true
				}
				loss := c.LossGood
				if e.burstBad[i] {
					loss = c.lossBad()
				}
				if loss > 0 && e.r.Bool(loss) {
					f.Drop = true
					w.Trace.Mark(t, from, MarkBurst)
				}
			case KindReorder:
				if e.r.Bool(c.P) {
					f.ExtraDelay += sim.Time(1 + e.r.Intn(int(c.Window)))
					w.Trace.Mark(t, from, MarkReorder)
				}
			case KindSpike:
				if c.matchesNode(from) || c.matchesNode(to) {
					f.ExtraDelay += c.Delay
					w.Trace.Mark(t, from, MarkSpike)
				}
			case KindBlackout:
				if from == c.Pair[0] && to == c.Pair[1] {
					f.Drop = true
					w.Trace.Mark(t, from, MarkBlackout)
				}
			case KindCorrupt:
				if c.matchesNode(from) && e.r.Bool(c.P) {
					f.Corrupt = e.corruptFn()
					w.Trace.Mark(t, from, MarkCorrupt)
				}
			case KindReplay:
				if c.matchesNode(from) && e.r.Bool(c.P) {
					win := c.Window
					if win <= 0 {
						win = 8
					}
					f.ReplayAfter = sim.Time(1 + e.r.Intn(int(win)))
					w.Trace.Mark(t, from, MarkReplay)
				}
			case KindForge:
				// Forging the true sender's own claim is a no-op (the tag
				// still verifies); skip it without consuming a draw.
				if c.matchesNode(from) && *c.As != from && e.r.Bool(c.P) {
					f.SpoofFrom = c.As
					w.Trace.Mark(t, from, MarkForge)
				}
			case KindCollude:
				// A colluder goes silent toward everyone outside its victim
				// set — no honest witness ever distills a receipt of its
				// broadcasts to compare against the lies. Acks still flow so
				// the silence reads as the sender having nothing to say, not
				// as a dead link retransmitted into forever.
				if c.matchesNode(from) && tag != node.AckTag {
					silenced := !c.matchesPeer(to)
					// An uncooperative relay drops its own anti-entropy
					// traffic even toward its victims.
					if !silenced && c.DropPull &&
						(tag == node.AuditPullTag || tag == node.AuditPullRespTag) {
						silenced = true
					}
					if silenced {
						f.Drop = true
						w.Trace.Mark(t, from, MarkCollude)
					}
				}
			}
		}
		return f
	}
}

// corruptFn builds the in-flight tamper closure a corrupt verdict carries:
// Tamperable payloads are perturbed with the engine's own rng (keeping
// fault randomness out of the world's channel stream); anything else is
// mangled beyond parsing, which the runtime models as a drop.
func (e *engine) corruptFn() func(any) (any, bool) {
	if e.corrupt == nil {
		e.corrupt = func(p any) (any, bool) {
			tp, ok := p.(node.Tamperable)
			if !ok {
				return nil, false
			}
			return tp.Tamper(e.r), true
		}
	}
	return e.corrupt
}

// senderHook builds the node.SenderHook evaluating equiv clauses: the lie
// is injected before the authentication layer tags the message, so an
// equivocating sender's divergent copies all verify.
//
// When the runtime stamps broadcasts (bseq != 0, i.e. the audit sublayer
// is on), the lie draws come from an rng keyed on (plan seed, from, to,
// bseq) instead of the engine's shared stream: re-sends of the same
// broadcast toward the same peer then lie IDENTICALLY, so a receiver's
// repeated observations of one (sender, bseq) never self-conflict, while
// different peers still get divergent payloads — exactly the shape the
// audit layer must catch. With bseq == 0 the shared stream is used
// unchanged, preserving the draw sequence of pre-audit experiments.
func (e *engine) senderHook(w *node.World) node.SenderHook {
	return func(now sim.Time, from, to graph.NodeID, tag string, bseq uint64, payload any) (any, bool) {
		applied := false
		for i := range e.plan.Clauses {
			c := &e.plan.Clauses[i]
			if !c.activeAt(now) || !c.matchesNode(from) {
				continue
			}
			if c.Kind == KindPoison {
				// The membership attack rides the pex exchange traffic only,
				// rewriting the wire bytes the way a real injector would.
				ex, ok := payload.(*node.PexExchange)
				if tag != node.PexExchangeTag && tag != node.PexReplyTag || !ok {
					continue
				}
				if !e.r.Bool(c.P) {
					continue
				}
				payload = e.poison(w, c, from, ex)
				applied = true
				w.Trace.Mark(core.Time(now), from, MarkPoison)
				continue
			}
			if (c.Kind != KindEquiv && c.Kind != KindCollude) || !c.matchesPeer(to) {
				continue
			}
			var r *rng.Rand
			mark := MarkEquiv
			switch c.Kind {
			case KindEquiv:
				r = e.r
				if bseq != 0 {
					r = e.lieRNG(from, to, bseq)
				}
			case KindCollude:
				// The clause's own chaff is honest filler by design: lying
				// on it would hand every victim pair fresh evidence.
				if tag == ChaffTag {
					continue
				}
				// Keying the lie on the GROUP (not the peer) makes all
				// victims of one partition receive the identical lie —
				// receipts inside a group can never conflict.
				r = e.colludeRNG(from, bseq, c.groupOf(to))
				mark = MarkCollude
			}
			if !r.Bool(c.P) {
				continue
			}
			tp, ok := payload.(node.Tamperable)
			if !ok {
				continue
			}
			payload = tp.Tamper(r)
			applied = true
			w.Trace.Mark(core.Time(now), from, mark)
		}
		return payload, applied
	}
}

// poison rewrites one outgoing pex exchange: decode the honest wire
// batch, append the clause's fabrications, re-encode. Sybil and dead
// records claim the current tick as their epoch (maximally fresh) under
// garbage signatures — an undefended view absorbs them wholesale, the
// view-audit defense rejects each one and charges the poisoner's
// injection budget. The hub bias instead replays the poisoner's GENUINE
// record of the target with its hop reset to 0, which no record-level
// check can fault: it marks the boundary of what signing (ID, Epoch) but
// not Hop can defend.
func (e *engine) poison(w *node.World, c *Clause, from graph.NodeID, ex *node.PexExchange) *node.PexExchange {
	recs, err := pex.DecodeRecords(ex.Wire)
	if err != nil {
		return ex // not an honest batch; nothing credible to blend into
	}
	now := int64(w.Engine.Now())
	have := make(map[graph.NodeID]bool, len(recs))
	for _, r := range recs {
		have[r.ID] = true
	}
	inject := func(r pex.Record) {
		if have[r.ID] || len(recs) >= pex.MaxWireRecords {
			return // an honest-looking batch never repeats a subject
		}
		have[r.ID] = true
		recs = append(recs, r)
	}
	for i := 0; i < c.Sybils; i++ {
		inject(pex.Record{ID: c.Sybil + graph.NodeID(i), Epoch: now, Sig: e.r.Uint64()})
	}
	if c.Dead > 0 {
		departed := w.DepartedEntities()
		n := c.Dead
		if n > len(departed) {
			n = len(departed)
		}
		for i := 0; i < n; i++ {
			inject(pex.Record{ID: departed[i], Epoch: now, Sig: e.r.Uint64()})
		}
	}
	if c.Target != 0 && c.Target != from {
		if rec, ok := w.PexRecordOf(from, c.Target); ok {
			rec.Hop = 0
			if have[rec.ID] {
				for i := range recs {
					if recs[i].ID == rec.ID {
						recs[i] = rec
					}
				}
			} else {
				inject(rec)
			}
		}
	}
	return &node.PexExchange{Pull: ex.Pull, Wire: pex.EncodeRecords(recs)}
}

// lieRNG derives the per-copy lie stream of one stamped broadcast. Keying
// on the peer (not the copy) makes the equivocation stable: same
// (sender, peer, bseq) always yields the same lie.
func (e *engine) lieRNG(from, to graph.NodeID, bseq uint64) *rng.Rand {
	seed := e.plan.Seed ^
		uint64(from)*0x9e3779b97f4a7c15 ^
		uint64(to)*0xc2b2ae3d27d4eb4f ^
		bseq*0x165667b19e3779f9
	return rng.New(seed)
}

// colludeRNG derives the lie stream of one colluding broadcast toward one
// victim GROUP: all members of the group draw from the same stream, so
// they receive the identical lie, while different groups diverge.
func (e *engine) colludeRNG(from graph.NodeID, bseq uint64, group int) *rng.Rand {
	seed := e.plan.Seed ^
		uint64(from)*0x9e3779b97f4a7c15 ^
		bseq*0x165667b19e3779f9 ^
		(uint64(group)+1)*0x27d4eb2f165667c5
	return rng.New(seed)
}
