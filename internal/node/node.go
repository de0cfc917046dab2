// Package node is the process runtime of the simulator: it ties together
// the event kernel (internal/sim), an overlay (internal/topology), a churn
// stream (internal/churn) and the ground-truth trace (internal/core), and
// runs a protocol behaviour on every present entity.
//
// The runtime enforces the paper's locality discipline: a process can only
// send to its current neighbors, learns about the system exclusively
// through received messages, and disappears with its timers when it
// leaves. Protocol code therefore cannot cheat by peeking at global state;
// the global view exists only in the recorded trace, where the
// specification checkers use it.
package node

import (
	"fmt"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Message is what travels between neighbors.
type Message struct {
	From, To graph.NodeID
	Tag      string
	Payload  any

	// seq is non-zero for messages tracked by the reliable channel layer;
	// the receiver acks it and suppresses duplicate deliveries.
	seq uint64
	// aseq and mac are set by the authentication sublayer: the per-pair
	// sequence number and the HMAC-style authenticator the receiver
	// verifies. Channel faults that rewrite the message after tagging
	// (corruption, sender forgery) invalidate mac; replays reuse a valid
	// aseq the receiver's anti-replay window has already accepted.
	aseq uint64
	mac  uint64
	// bseq and sig are set by the audit sublayer: the sender's broadcast
	// sequence number (one per logical broadcast — every per-neighbor copy
	// of the same payload shares it) and the transferable signature over
	// (sender key, bseq, payload fingerprint). Unlike mac, sig is
	// verifiable by ANY receiver, so two receivers comparing receipts for
	// one (sender, bseq) can prove equivocation to each other.
	bseq uint64
	sig  uint64
	// epoch is the sender's stack epoch at send time (reconfiguration
	// layer; 0 without it). It is folded into mac, so a channel adversary
	// cannot migrate a message between epochs, and the receiver verifies
	// and judges the copy under epoch's rules however late it arrives.
	epoch uint64
}

// Tamperable payloads know how to produce a corrupted-but-parseable copy
// of themselves; Byzantine corruption clauses call it through the channel
// hook. Tamper must not mutate the receiver, must derive all randomness
// from r, and must return a payload of the same concrete type (a message
// mangled beyond parsing is modeled as a drop, not a Tamper).
type Tamperable interface {
	Tamper(r *rng.Rand) any
}

// Fingerprinter payloads digest themselves for the auth and audit
// sublayers' MACs, signatures and receipts, instead of through fmt.
// Fingerprint must be a pure function of the payload's fields that
// splits payloads exactly where fmt's "%T|%v" rendering does: fold a
// constant of its own for the type, float fields as math.Float64bits,
// every slice length-prefixed (nil and empty alike), and map entries
// order-independently (a sum of mixed key-value pairs, plus the length).
type Fingerprinter interface {
	Fingerprint() uint64
}

// Behavior is the per-entity protocol logic. Each entity gets its own
// Behavior instance, created by the factory passed to NewWorld.
type Behavior interface {
	// Init runs when the entity joins (after its overlay edges exist).
	Init(p *Proc)
	// Receive runs on each message delivery.
	Receive(p *Proc, m Message)
}

// BehaviorFactory builds the Behavior for a joining entity.
type BehaviorFactory func(id graph.NodeID) Behavior

// Nop is a Behavior that does nothing: a plain member holding a value.
type Nop struct{}

// Init implements Behavior.
func (Nop) Init(*Proc) {}

// Receive implements Behavior.
func (Nop) Receive(*Proc, Message) {}

// Config parameterizes the runtime.
type Config struct {
	// MinLatency and MaxLatency bound per-message delivery delay; each
	// message draws uniformly from [MinLatency, MaxLatency]. Defaults to
	// [1, 1] when both are zero.
	MinLatency, MaxLatency sim.Time
	// LossRate drops each message independently with this probability.
	// Jittered latency may reorder a directed pair's messages: that is the
	// weaker (and more adversarial) channel the paper's model permits.
	LossRate float64
	// Reliable enables the ack/retransmit channel sublayer (see
	// ReliableConfig). Protocol code is unchanged: Send is tracked, the
	// receiver acks, lost messages are retransmitted with exponential
	// backoff until acked or the retry budget runs out.
	Reliable ReliableConfig
	// Auth enables the authentication sublayer (see AuthConfig): every
	// Send is tagged with a per-pair authenticator, the receiver rejects
	// copies that fail verification or replay an accepted sequence
	// number, and quarantines neighbors that exhaust a misbehavior
	// budget. Composes with Reliable: rejected copies are not acked, so
	// the reliable sender retransmits a clean copy.
	Auth AuthConfig
	// Audit enables the equivocation audit sublayer (see AuditConfig) on
	// top of Auth: senders sign every broadcast with a transferable
	// signature, receivers gossip compact receipts to their neighbors, and
	// two validly-signed receipts with one (sender, bseq) but different
	// fingerprints are proof of equivocation — the prover quarantines the
	// sender and forwards the pair so the proof propagates. Requires Auth.
	Audit AuditConfig
	// Identity selects how the auth/audit sublayers' security state is
	// keyed across Leave→Join cycles (see IdentityConfig): session-keyed
	// by default — a rejoin is a fresh principal and peers forget the old
	// session, quarantines included — or durable, where identity state
	// persists through the stable store and convictions stick.
	Identity IdentityConfig
	// Reconfig enables live protocol-stack reconfiguration (see
	// ReconfigConfig): the reliable/auth/audit/identity knobs above
	// become epoch 0 of a versioned StackConfig that World.Reconfigure
	// can replace at runtime through a quiescence handshake. Off by
	// default, leaving the stack frozen at NewWorld.
	Reconfig ReconfigConfig
	// Pex enables the peer-exchange membership sublayer (see pex.Config
	// and pexlayer.go): entities hold bounded partial views of signed
	// membership records, trade them on a cadence, and the sublayer
	// reconciles views into live overlay links. Requires an overlay
	// implementing topology.LinkController. Its Audit knob turns on the
	// view-audit defense, which quarantines record injectors through the
	// auth sublayer when that one is enabled too.
	Pex pex.Config
	// Store persists behavior snapshots across crash–recovery gaps
	// (see Recoverable). Defaults to an in-memory store.
	Store StableStore
	// ValueOf assigns the local value an entity contributes to queries.
	// Defaults to float64(id).
	ValueOf func(id graph.NodeID) float64
	// Seed drives latency and loss draws.
	Seed uint64
}

// Validate reports the first configuration error, or nil. NewWorld panics
// on an invalid config; drivers assembling configs from user input
// (cmd/ddsim) call Validate directly for a graceful message. The zero
// latency pair is valid (it means the [1, 1] default).
func (cfg Config) Validate() error {
	if cfg.MinLatency != 0 || cfg.MaxLatency != 0 {
		if cfg.MinLatency < 1 {
			return fmt.Errorf("node: MinLatency %d below the 1-tick minimum", cfg.MinLatency)
		}
		if cfg.MinLatency > cfg.MaxLatency {
			return fmt.Errorf("node: MinLatency %d exceeds MaxLatency %d", cfg.MinLatency, cfg.MaxLatency)
		}
	}
	if cfg.LossRate < 0 || cfg.LossRate > 1 {
		return fmt.Errorf("node: LossRate %v outside [0, 1]", cfg.LossRate)
	}
	if err := cfg.Reliable.Validate(); err != nil {
		return err
	}
	if err := cfg.Auth.Validate(); err != nil {
		return err
	}
	if err := cfg.Audit.Validate(); err != nil {
		return err
	}
	if err := cfg.Identity.Validate(); err != nil {
		return err
	}
	if err := cfg.Reconfig.Validate(); err != nil {
		return err
	}
	if err := cfg.Pex.Validate(); err != nil {
		return err
	}
	if cfg.Audit.Enabled && !cfg.Auth.Enabled {
		return fmt.Errorf("node: the audit sublayer requires the auth sublayer (its receipts travel authenticated and its proofs quarantine through it)")
	}
	return nil
}

// Proc is one running entity.
type Proc struct {
	ID    graph.NodeID
	Value float64

	world    *World
	behavior Behavior
	timers   []*procTimer
	alive    bool
	// epoch is the stack epoch the entity operates under (World.stacks
	// index): the latest committed one at bringUp, advanced only by the
	// reconfiguration handshake, so 0 for life when that layer is off.
	epoch uint64
	// The entity's record in each enabled sublayer (nil when the layer is
	// off), cached at bringUp so the per-message paths skip the
	// identity-keyed lookup. The layers' maps stay the owners: a record's
	// lifetime is its identity's, not this session's (see DESIGN.md,
	// sublayer state model). The exception is reconf, the handshake's
	// flood dedup: its lifetime is the session's, so the Proc owns it.
	rel    *relSender
	auth   *authPeer
	audit  *observer
	reconf *reconfigNode
	pex    *pexPeer
}

// procTimer is one slot in an entity's timer registry. Fired and
// canceled timers are swap-removed immediately (see Proc.After), so the
// registry length tracks the number of armed timers instead of every
// timer the entity ever set. Fired timers are recycled through the
// world's free list.
type procTimer struct {
	p    *Proc
	f    func()
	ev   *sim.Event
	slot int // index in p.timers, -1 once unregistered
}

// ChannelFault describes what a channel hook does to one transmission:
// drop it, delay it further, deliver extra copies, or — the Byzantine
// extensions — corrupt the payload, forge the sender, or replay a stale
// copy later. The zero value is a clean pass-through.
type ChannelFault struct {
	// Drop loses the transmission (recorded as a trace drop).
	Drop bool
	// ExtraDelay is added to the drawn latency of every delivered copy.
	ExtraDelay sim.Time
	// Duplicates is the number of extra copies to deliver, each with its
	// own latency draw.
	Duplicates int
	// Corrupt, if non-nil, rewrites the payload in flight (after the
	// authentication sublayer tagged it, so the tag no longer verifies).
	// Returning false means the payload could not be tampered with in a
	// parseable way; the copy is dropped instead.
	Corrupt func(payload any) (any, bool)
	// SpoofFrom, if non-nil, rewrites the claimed sender of every
	// delivered copy (after tagging: the forged claim does not hold the
	// real pair's key, so an authenticating receiver rejects it — and
	// charges the INNOCENT claimed sender's budget).
	SpoofFrom *graph.NodeID
	// ReplayAfter, if positive, schedules one extra delivery of the
	// unmodified wire message (valid authenticator, stale sequence
	// number) this many ticks after its own latency draw.
	ReplayAfter sim.Time
}

// ChannelHook inspects an outgoing transmission after the independent
// loss coin and returns the faults to apply. Fault-injection plans
// (internal/fault) attach through this hook.
type ChannelHook func(now sim.Time, from, to graph.NodeID, tag string) ChannelFault

// SenderHook inspects an outgoing message BEFORE the authentication
// sublayer tags it, and may replace the payload (returning ok=true). This
// is the Byzantine-sender surface: an equivocating entity signs its lies
// with its real key, so they pass verification — unlike ChannelFault
// corruption, which happens post-tag and is caught. Fault plans install
// it next to the channel hook. bseq is the broadcast sequence number the
// audit sublayer assigned to the HONEST payload (0 with the sublayer
// off): per-neighbor copies of one logical broadcast share it, which is
// what makes an equivocator's divergent lies comparable across receivers.
type SenderHook func(now sim.Time, from, to graph.NodeID, tag string, bseq uint64, payload any) (any, bool)

// World is a simulated dynamic system.
type World struct {
	Engine  *sim.Engine
	Overlay topology.Overlay
	Trace   *core.Trace

	cfg     Config
	r       *rng.Rand
	factory BehaviorFactory
	procs   graph.Table[*Proc]
	// envFree is the in-flight delivery envelope pool. Delivery events
	// are never canceled, so an envelope is always handed back exactly
	// once, at the top of its firing; the world is single-threaded, so a
	// plain freelist suffices and stays deterministic.
	envFree []*deliveryEnv
	// stacks is the stack registry: stacks[e] is epoch e's resolved
	// stack. Epoch 0 (genesis) is built from the sublayer configs in every
	// world; only the reconfiguration layer appends. Knobs are read
	// through World.stack.
	stacks   []StackConfig
	hook     ChannelHook
	sendHook SenderHook
	rel      *reliableLayer
	auth     *authLayer
	audit    *auditLayer
	reconfig *reconfigLayer
	pex      *pexLayer
	store    StableStore
	// seen marks every identity that has ever joined, so Join can tell a
	// rejoin from a first arrival; identStats, departed, departedSet and
	// departedPinned are the identity-continuity bookkeeping (see
	// identity.go).
	seen       map[graph.NodeID]bool
	identStats IdentityCounters
	// turnJoins / turnLeaves count every membership arrival (Join,
	// Recover) and departure (Leave, Crash) since the world was built.
	// Protocols that size time bounds from churn (internal/tq's lease)
	// sample the deltas; see Turnover.
	turnJoins      int
	turnLeaves     int
	departed       []graph.NodeID
	departedSet    map[graph.NodeID]bool
	departedPinned map[graph.NodeID]bool

	// timerFree is the fired-timer pool (see fireProcTimer). Only fired
	// timers return to it: a canceled one may still be named by its
	// canceled *sim.Event, so it is left to the garbage collector.
	timerFree []*procTimer
}

// NewWorld assembles a runtime over the given engine and overlay. The
// factory may be nil, in which case every entity runs Nop.
func NewWorld(engine *sim.Engine, overlay topology.Overlay, factory BehaviorFactory, cfg Config) *World {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.MinLatency == 0 && cfg.MaxLatency == 0 {
		cfg.MinLatency, cfg.MaxLatency = 1, 1
	}
	if cfg.ValueOf == nil {
		cfg.ValueOf = func(id graph.NodeID) float64 { return float64(id) }
	}
	if factory == nil {
		factory = func(graph.NodeID) Behavior { return Nop{} }
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	cfg.Identity = cfg.Identity.withDefaults()
	w := &World{
		Engine:  engine,
		Overlay: overlay,
		Trace:   &core.Trace{},
		cfg:     cfg,
		r:       rng.New(cfg.Seed),
		factory: factory,
		store:   cfg.Store,
		seen:    make(map[graph.NodeID]bool),
	}
	if cfg.Reliable.Enabled {
		w.rel = newReliableLayer(cfg.Reliable.withDefaults(), cfg.Reconfig.Enabled)
	}
	if cfg.Auth.Enabled {
		w.auth = newAuthLayer(cfg.Auth.withDefaults())
	}
	if cfg.Audit.Enabled {
		w.audit = newAuditLayer(cfg.Audit.withDefaults())
	}
	if cfg.Pex.Enabled {
		if _, ok := overlay.(topology.LinkController); !ok {
			panic(fmt.Sprintf("node: the pex sublayer needs direct link control, which overlay %s does not support", overlay.Name()))
		}
		w.pex = newPexLayer(cfg.Pex.WithDefaults(), cfg.Seed)
		engine.Every(w.pex.cfg.SampleEvery, func() { w.pex.sample(w) })
	}
	w.stacks = []StackConfig{w.genesisStack()}
	if cfg.Reconfig.Enabled {
		w.reconfig = newReconfigLayer()
	}
	return w
}

// SetChannelHook installs (or, with nil, removes) the channel fault hook.
// At most one hook is active; fault plans compose clauses internally.
func (w *World) SetChannelHook(h ChannelHook) { w.hook = h }

// SetSenderHook installs (or, with nil, removes) the pre-authentication
// sender hook. At most one hook is active.
func (w *World) SetSenderHook(h SenderHook) { w.sendHook = h }

// Proc returns the running entity with the given ID, or nil if absent.
func (w *World) Proc(id graph.NodeID) *Proc {
	p, _ := w.procs.Get(id)
	return p
}

// Present returns the IDs of currently present entities, ascending.
func (w *World) Present() []graph.NodeID { return w.Overlay.Graph().Nodes() }

// Turnover returns the cumulative membership turnover since the world
// was built: joins counts arrivals (Join + Recover), leaves counts
// departures (Leave + Crash). Both are monotone; samplers take deltas
// (internal/tq's churn-sized lease estimator does).
func (w *World) Turnover() (joins, leaves int) { return w.turnJoins, w.turnLeaves }

// Join brings an entity into the system now: overlay attachment, trace
// recording, behaviour start. Joining a present entity panics.
//
// A join under an identity that was present before is a REJOIN, recorded
// as core.MarkRejoin at the joining tick. What it means for sublayer
// security state depends on Config.Identity: session-keyed (default),
// the new session is a fresh principal and peers' state about the old
// one — quarantines and convictions included — is wiped (counted as
// laundering, see identity.go); durable, the identity record persisted
// at departure is restored and the rejoiner resumes its old sequence
// space, so verdicts stick and honest churners are not misread as
// replay attackers.
func (w *World) Join(id graph.NodeID) *Proc {
	if w.Proc(id) != nil {
		panic(fmt.Sprintf("node: entity %d joined twice", id))
	}
	now := int64(w.Engine.Now())
	rejoin := w.seen[id]
	w.seen[id] = true
	if rejoin {
		w.Trace.Mark(now, id, core.MarkRejoin)
	}
	w.Trace.Join(now, id)
	w.recordChanges(now, w.Overlay.AddNode(id))
	return w.bringUp(id, func(p *Proc) {
		// Identity keying is an epoch-governed knob: a joiner operates under
		// the latest committed stack, so ITS durability — not the frozen
		// genesis config — decides whether this join restores or resets.
		if w.auth != nil {
			if w.stack(p.epoch).Durable {
				w.identRestoreOnJoin(id)
			} else if rejoin {
				w.identResetOnRejoin(id)
			}
		}
		p.behavior.Init(p)
	})
}

// bringUp is the half of an arrival that Join and Recover share, run once
// the arrival is on the trace and in the overlay: the entity becomes a
// running Proc at the latest committed stack epoch (a recoverer missed any
// commits while down, like a joiner), start initializes or restores its
// behaviour and identity, and only then do the audit and pex sublayers
// begin working for it.
func (w *World) bringUp(id graph.NodeID, start func(p *Proc)) *Proc {
	w.turnJoins++
	p := &Proc{
		ID:       id,
		Value:    w.cfg.ValueOf(id),
		world:    w,
		behavior: w.factory(id),
		alive:    true,
	}
	w.procs.Set(id, p)
	if w.rel != nil {
		p.rel = w.rel.sender(id)
	}
	if w.auth != nil {
		p.auth = w.auth.peer(id)
	}
	if w.audit != nil {
		p.audit = w.audit.observer(id)
	}
	if w.reconfig != nil {
		p.epoch = w.reconfig.latest
		p.reconf = &reconfigNode{}
	}
	start(p)
	if w.audit != nil {
		w.audit.start(p)
	}
	if w.pex != nil {
		w.pex.onJoin(w, p)
	}
	return p
}

// tearDown is the half of a departure that Leave and Crash share: the
// trace records it, the entity's timers die with it and it stops being a
// Proc. Its pex view is soft state and dies with the session either way
// (a recovery re-bootstraps), as does its reconfiguration handshake state
// (Proc.reconf).
func (w *World) tearDown(p *Proc, now core.Time) {
	w.turnLeaves++
	w.Trace.Leave(now, p.ID)
	for _, t := range p.timers {
		t.ev.Cancel()
	}
	p.timers = nil
	p.alive = false
	w.procs.Delete(p.ID)
	if w.pex != nil {
		w.pex.onLeave(w, p.ID)
	}
}

// Leave removes a present entity now: its timers die with it, in-flight
// messages to it will be dropped on arrival. Leaving twice is a no-op
// (the entity may have been removed by churn already).
func (w *World) Leave(id graph.NodeID) {
	p := w.Proc(id)
	if p == nil {
		return
	}
	now := int64(w.Engine.Now())
	chs := w.Overlay.RemoveNode(id)
	w.recordChanges(now, chs)
	if w.pex != nil {
		for _, c := range chs {
			if !c.Up {
				w.pex.unlinked(c.U, c.V)
			}
		}
	}
	w.tearDown(p, now)
	if w.auth != nil {
		// The departing entity's durability is that of ITS current epoch.
		if w.stack(p.epoch).Durable {
			// The identity persists: write its sublayer state to the stable
			// store so a rejoin resumes the same principal.
			w.identSaveOnLeave(id)
		} else {
			// Session-keyed: the departing session's own state — sender
			// counters, its receiver-side ledger, its receipt store — dies
			// with it. (Peers' state about it is wiped at rejoin time, not
			// here: an identity that never returns harms nobody.)
			w.dropIdentityState(id)
			if w.audit != nil {
				w.audit.purgeObserver(id)
			}
		}
	}
}

// Crash removes a present entity WITHOUT telling the overlay: the entity
// stops executing (its timers die, messages to it are dropped) and the
// ground-truth trace records its departure, but its edges linger in the
// communication graph — neighbors keep stale knowledge, so a protocol
// waiting on the crashed entity waits out its own timeout, if it has one
// (TreeEcho's departure detection never fires for it). This models
// unannounced failure as opposed to an (overlay-visible) leave. Crashing
// an absent entity is a no-op.
//
// If the entity's behavior implements Recoverable, its snapshot is saved
// to the world's stable store so a later Recover can restore it: the
// snapshot models state the entity had written durably before failing.
// The entity's identity record — auth per-pair send counters, its
// anti-replay windows and strike/budget ledger, quarantines with their
// parole deadlines, the audit broadcast counter — is persisted alongside
// it and the in-memory copies dropped: losing the send counters would
// restart them at 1 (stale numbers that land inside peers' anti-replay
// windows and read as replays), and losing the quarantine ledger would
// restart parole clocks from zero on recovery.
func (w *World) Crash(id graph.NodeID) {
	p := w.Proc(id)
	if p == nil {
		return
	}
	snap := durableSnapshot{}
	if rec, ok := p.behavior.(Recoverable); ok {
		snap.behavior, snap.hasBehavior = rec.Snapshot(), true
	}
	if w.auth != nil {
		rec := w.identityRecord(id)
		w.dropIdentityState(id)
		if !rec.Empty() {
			snap.ident = EncodeIdentity(rec)
		}
	}
	if snap.ident != nil {
		w.store.Save(id, snap)
	} else if snap.hasBehavior {
		// Nothing beyond the behavior's own snapshot is durable; store it
		// bare, as pre-wrapper stores (and tests reading them) expect.
		w.store.Save(id, snap.behavior)
	}
	now := int64(w.Engine.Now())
	w.Trace.Mark(now, id, core.MarkCrash)
	w.tearDown(p, now)
}

// Recover brings a crashed entity back: it resumes executing under its
// pre-crash identity, restoring behavior state from the stable store if a
// snapshot exists and the behavior implements Recoverable (otherwise the
// behavior starts fresh via Init). The entity's edges, which the crash
// left lingering in the overlay, become live again; edges to peers that
// are themselves still crashed are re-announced when those peers recover.
// Recovering a present entity panics; use it only after Crash.
func (w *World) Recover(id graph.NodeID) *Proc {
	if w.Proc(id) != nil {
		panic(fmt.Sprintf("node: entity %d recovered while present", id))
	}
	now := int64(w.Engine.Now())
	w.seen[id] = true
	w.Trace.Mark(now, id, core.MarkRecover)
	w.Trace.Join(now, id)
	if !w.Overlay.Graph().HasNode(id) {
		// The overlay forgot the entity entirely; rejoin as a fresh
		// attachment.
		w.recordChanges(now, w.Overlay.AddNode(id))
	} else {
		// The crash-time Leave removed the entity from the trace's
		// temporal view while its edges stayed in the overlay; re-announce
		// the live ones so the recorded graph matches reality again.
		for _, u := range w.Overlay.Graph().Neighbors(id) {
			if w.Proc(u) != nil {
				w.Trace.EdgeUp(now, id, u)
			}
		}
	}
	return w.bringUp(id, func(p *Proc) {
		if raw, ok := w.store.Load(id); ok {
			// Stores written before the durable wrapper existed (or by tests
			// seeding snapshots directly) hold the bare behavior snapshot.
			snap, wrapped := raw.(durableSnapshot)
			if !wrapped {
				snap = durableSnapshot{behavior: raw, hasBehavior: true}
			}
			if snap.ident != nil && w.auth != nil {
				rec, err := DecodeIdentity(snap.ident)
				if err != nil {
					// The store only ever holds records this process encoded; a
					// decode failure is a bug, not an input condition.
					panic(err.Error())
				}
				w.restoreIdentityState(id, rec)
			}
			if snap.hasBehavior {
				if rec, ok := p.behavior.(Recoverable); ok {
					rec.Restore(p, snap.behavior)
					return
				}
			}
		}
		p.behavior.Init(p)
	})
}

func (w *World) recordChanges(now core.Time, chs []topology.Change) {
	for _, c := range chs {
		if c.Up {
			w.Trace.EdgeUp(now, c.U, c.V)
		} else {
			w.Trace.EdgeDown(now, c.U, c.V)
		}
	}
}

// SetLink flips a single edge now, for overlays that support direct edge
// control (topology.LinkController) — the hook experiment scripts use to
// stage partitions. It panics if the overlay does not support it.
func (w *World) SetLink(u, v graph.NodeID, up bool) {
	if !w.flipLink(u, v, up) || w.pex == nil {
		return
	}
	if up {
		// An edge placed from outside the views may be one no view wants.
		w.pex.touch(u, v)
	} else {
		// One cut from outside may be one a view still wants.
		w.pex.unlinked(u, v)
	}
}

// flipLink is SetLink without the pex sublayer's marks, for the
// reconciler's own flips. It reports whether the edge flipped.
func (w *World) flipLink(u, v graph.NodeID, up bool) bool {
	lc, ok := w.Overlay.(topology.LinkController)
	if !ok {
		panic(fmt.Sprintf("node: overlay %s does not support direct link control", w.Overlay.Name()))
	}
	now := int64(w.Engine.Now())
	switch {
	case up && lc.Link(u, v):
		w.Trace.EdgeUp(now, u, v)
	case !up && lc.Unlink(u, v):
		w.Trace.EdgeDown(now, u, v)
	default:
		return false
	}
	return true
}

// ApplyChurn schedules a churn stream onto the engine, bounded by the
// horizon. Events beyond the horizon are left in the generator.
func (w *World) ApplyChurn(g *churn.Generator, horizon sim.Time) {
	for _, ev := range g.Collect(int64(horizon)) {
		ev := ev
		w.Engine.At(sim.Time(ev.At), func() {
			if ev.Join {
				w.Join(ev.Node)
			} else {
				w.Leave(ev.Node)
			}
		})
	}
}

// Close finalizes the trace at the current virtual time.
func (w *World) Close() { w.Trace.Close(int64(w.Engine.Now())) }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.world.Engine.Now() }

// Behavior returns the entity's protocol instance; drivers use it to
// launch operations (e.g. issue a query) on a specific entity.
func (p *Proc) Behavior() Behavior { return p.behavior }

// Alive reports whether the entity is still in the system.
func (p *Proc) Alive() bool { return p.alive }

// Neighbors returns the entity's current neighbors, ascending.
func (p *Proc) Neighbors() []graph.NodeID {
	if !p.alive {
		return nil
	}
	return p.world.Overlay.Graph().Neighbors(p.ID)
}

// AppendNeighbors appends the entity's current neighbors, ascending, to
// dst and returns the extended slice: Neighbors for a caller that reuses
// one buffer. A departed entity appends nothing.
func (p *Proc) AppendNeighbors(dst []graph.NodeID) []graph.NodeID {
	if !p.alive {
		return dst
	}
	return p.world.Overlay.Graph().AppendNeighbors(dst, p.ID)
}

// Send transmits a message to a current neighbor. Sending to a non-
// neighbor (stale knowledge) or from a departed entity records a drop.
// Delivery is delayed by a random latency; the message is dropped if the
// recipient is absent at delivery time or loses an independent coin flip.
// With the reliable sublayer enabled the message is additionally tracked
// for ack/retransmit until acked or the retry budget runs out.
func (p *Proc) Send(to graph.NodeID, tag string, payload any) {
	w := p.world
	if !p.alive || !w.Overlay.Graph().HasEdge(p.ID, to) {
		w.Trace.Drop(int64(w.Engine.Now()), p.ID, to, tag)
		return
	}
	// The audit sublayer assigns the broadcast sequence number from the
	// HONEST payload, before the sender hook can lie: every per-neighbor
	// copy of one logical broadcast shares a bseq, so divergent copies are
	// comparable across receivers. The signature is then computed over the
	// FINAL payload — an equivocating sender signs its own lies, which is
	// exactly what makes the receipt pair a transferable proof against it.
	var bseq uint64
	if w.audit != nil && w.audit.stamps(tag) {
		bseq = w.audit.bseqFor(p, tag, payload)
	}
	if w.sendHook != nil {
		if rep, ok := w.sendHook(w.Engine.Now(), p.ID, to, tag, bseq, payload); ok {
			payload = rep
		}
	}
	m := Message{From: p.ID, To: to, Tag: tag, Payload: payload}
	if bseq != 0 {
		m.bseq = bseq
		m.sig = w.audit.sign(p.ID, bseq, payload)
	}
	// Stamp the sender's current stack epoch BEFORE authentication:
	// the MAC covers it, so the copy is forever bound to the rules it
	// was sent under — retransmissions reuse these wire bytes and
	// still verify after a key rotation.
	m.epoch = p.epoch
	if w.auth != nil {
		w.auth.tag(w, p, &m)
	}
	if w.rel != nil {
		w.rel.send(w, p, m)
		return
	}
	w.transmit(m)
}

// transmit pushes one copy of m into the channel: loss coin, fault hook,
// latency draw, scheduled delivery. The edge is
// re-checked here because retransmissions happen after the original Send
// and a link that has since gone down must not carry the copy (it may
// heal before the next retry).
func (w *World) transmit(m Message) {
	now := int64(w.Engine.Now())
	if !w.Overlay.Graph().HasEdge(m.From, m.To) {
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return
	}
	w.Trace.Send(now, m.From, m.To, m.Tag)
	if w.cfg.LossRate > 0 && w.r.Bool(w.cfg.LossRate) {
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return
	}
	var fl ChannelFault
	if w.hook != nil {
		fl = w.hook(w.Engine.Now(), m.From, m.To, m.Tag)
	}
	if fl.Drop {
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return
	}
	if fl.ReplayAfter > 0 {
		// Replay the unmodified wire message: its authenticator still
		// verifies, but its sequence number will be stale on arrival.
		replayed := m
		delay := w.cfg.MinLatency
		if span := w.cfg.MaxLatency - w.cfg.MinLatency; span > 0 {
			delay += sim.Time(w.r.Intn(int(span) + 1))
		}
		w.scheduleDelivery(delay+fl.ReplayAfter, replayed)
	}
	if fl.Corrupt != nil {
		rep, ok := fl.Corrupt(m.Payload)
		if !ok {
			// Mangled beyond parsing: the copy is lost, not delivered.
			w.Trace.Drop(now, m.From, m.To, m.Tag)
			return
		}
		m.Payload = rep
	}
	if fl.SpoofFrom != nil {
		m.From = *fl.SpoofFrom
	}
	for i := 0; i <= fl.Duplicates; i++ {
		delay := w.cfg.MinLatency
		if span := w.cfg.MaxLatency - w.cfg.MinLatency; span > 0 {
			delay += sim.Time(w.r.Intn(int(span) + 1))
		}
		w.scheduleDelivery(delay+fl.ExtraDelay, m)
	}
}

// deliveryEnv carries one scheduled message copy from transmit to
// deliver without a per-delivery closure; envelopes recycle through
// World.envFree.
type deliveryEnv struct {
	w *World
	m Message
}

func (w *World) acquireEnv() *deliveryEnv {
	if n := len(w.envFree); n > 0 {
		env := w.envFree[n-1]
		w.envFree[n-1] = nil
		w.envFree = w.envFree[:n-1]
		return env
	}
	return &deliveryEnv{w: w}
}

func (w *World) scheduleDelivery(delay sim.Time, m Message) {
	env := w.acquireEnv()
	env.m = m
	w.Engine.AfterCall(delay, fireDelivery, env)
}

func fireDelivery(arg any) {
	env := arg.(*deliveryEnv)
	w, m := env.w, env.m
	// Release before delivering: the behavior may send, and the nested
	// transmit can then reuse the envelope.
	env.m = Message{}
	w.envFree = append(w.envFree, env)
	w.deliver(m)
}

// deliver hands an arriving copy to the recipient: drop if it departed,
// admit it through the authentication sublayer, ack and dedup under the
// reliable sublayer, then run the behavior.
//
// The two sublayers interleave deliberately. Authenticator verification
// runs BEFORE the reliable ack, so a corrupted or forged copy is never
// acknowledged and the honest sender retransmits a clean one — this is
// what lets the composed stack restore validity under Byzantine channel
// faults. The anti-replay window runs AFTER reliable dedup, so benign
// retransmission duplicates (already suppressed by seq) never charge the
// sender's misbehavior budget; with the reliable sublayer off, the window
// is the only duplicate/replay filter. Acks themselves travel
// unauthenticated — forging an ack can at worst suppress a retransmission,
// which the model counts as channel loss.
func (w *World) deliver(m Message) {
	now := int64(w.Engine.Now())
	q, ok := w.procs.Get(m.To)
	if !ok {
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return
	}
	if w.rel != nil && m.Tag == AckTag {
		w.Trace.Deliver(now, m.To, m.From, m.Tag)
		w.rel.onAck(w, m)
		return
	}
	// The epoch fence runs before authentication: a copy too many epochs
	// behind the receiver is dropped without a strike (it needs no key to
	// judge, and fencing first means a straggler — or a forged stamp —
	// can never charge an honest sender's budget).
	if w.reconfig != nil && !w.reconfig.admitEpoch(w, q, m) {
		return
	}
	if w.auth != nil && !w.auth.admit(w, q, m) {
		return
	}
	if m.seq != 0 && w.rel != nil {
		// Ack every arriving copy (the previous ack may have been lost),
		// but deliver the payload to the behavior only once.
		w.rel.ackBack(w, m)
		if w.rel.delivered[m.seq] {
			w.Trace.Mark(now, m.To, MarkDupSuppressed)
			return
		}
		w.rel.delivered[m.seq] = true
	}
	if w.auth != nil && !w.auth.admitSeq(w, q, m) {
		return
	}
	if w.reconfig != nil {
		// The copy is fully verified; a newer committed epoch stamped on
		// it pulls the receiver forward (catch-up), and handshake traffic
		// terminates here like acks and audit gossip.
		w.reconfig.observeEpoch(w, q, m)
		if isReconfigTag(m.Tag) {
			w.Trace.Deliver(now, m.To, m.From, m.Tag)
			w.reconfig.onReconfig(w, q, m)
			return
		}
	}
	if w.pex != nil && isPexTag(m.Tag) {
		// Pex exchange traffic terminates here, after authentication but
		// outside the audit hold (its records carry their own signatures
		// and freshness, judged by the view-audit defense).
		w.Trace.Deliver(now, m.To, m.From, m.Tag)
		w.pex.onMessage(w, q, m)
		return
	}
	if w.audit != nil {
		// Audit sublayer traffic (receipts, proof pairs, pull digests and
		// their responses) terminates here, like acks: behaviors never see
		// it.
		if m.Tag == AuditReceiptTag || m.Tag == AuditProofTag ||
			m.Tag == AuditPullTag || m.Tag == AuditPullRespTag {
			w.Trace.Deliver(now, m.To, m.From, m.Tag)
			w.audit.onAudit(w, q, m)
			return
		}
		// Record the receipt at arrival, then HOLD the delivery for the
		// audit window: receipts gossip while the payload waits, so a
		// proof of equivocation established in the meantime kills the lie
		// before the behavior ever folds it in. Honest traffic pays the
		// hold as uniform extra latency.
		if m.bseq != 0 {
			w.audit.observe(w, q, m)
		}
		if w.audit.cfg.HoldFor > 0 {
			w.audit.hold(w, m)
			return
		}
	}
	w.Trace.Deliver(now, m.To, m.From, m.Tag)
	q.behavior.Receive(q, m)
}

// Broadcast sends the message to every current neighbor.
func (p *Proc) Broadcast(tag string, payload any) {
	for _, u := range p.Neighbors() {
		p.Send(u, tag, payload)
	}
}

// After schedules f to run on this entity d ticks from now; the timer is
// silently canceled if the entity leaves first. The registry entry is
// removed the moment the timer fires, so long-lived entities with
// self-rescheduling tickers hold O(armed timers), not O(timers ever set).
func (p *Proc) After(d sim.Time, f func()) {
	w := p.world
	var t *procTimer
	if n := len(w.timerFree); n > 0 {
		t = w.timerFree[n-1]
		w.timerFree = w.timerFree[:n-1]
	} else {
		t = new(procTimer)
	}
	t.p, t.f, t.slot = p, f, len(p.timers)
	t.ev = w.Engine.AfterCall(d, fireProcTimer, t)
	p.timers = append(p.timers, t)
}

// fireProcTimer runs a timer's callback. The timer is unregistered,
// cleared and back on the free list before f runs, so a timer f arms may
// be this very object.
func fireProcTimer(arg any) {
	t := arg.(*procTimer)
	p, f := t.p, t.f
	p.unregister(t)
	*t = procTimer{slot: -1}
	p.world.timerFree = append(p.world.timerFree, t)
	if p.alive {
		f()
	}
}

// unregister swap-removes a timer from the registry. Safe to call for a
// timer already cleared by Leave/Crash (the slot no longer points back).
func (p *Proc) unregister(t *procTimer) {
	last := len(p.timers) - 1
	if t.slot < 0 || t.slot > last || p.timers[t.slot] != t {
		return
	}
	moved := p.timers[last]
	p.timers[t.slot] = moved
	moved.slot = t.slot
	p.timers[last] = nil
	p.timers = p.timers[:last]
	t.slot = -1
}

// Mark records a protocol-defined trace event at this entity.
func (p *Proc) Mark(tag string) {
	p.world.Trace.Mark(int64(p.world.Engine.Now()), p.ID, tag)
}
