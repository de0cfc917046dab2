package node

// Live protocol-stack reconfiguration: the runtime's answer to the
// paper's observation that a dynamic system's COMPOSITION is not the
// only thing that changes while it runs — its operating parameters do
// too. Every sublayer this runtime stacks under Proc.Send (reliable
// retransmission, auth keys, audit retention, identity durability) is
// frozen at NewWorld; this file makes the frozen slice versioned and
// swappable at runtime without violating any standing guarantee.
//
// The moving parts:
//
//   - StackConfig is the reconfigurable slice of the stack, versioned by
//     EPOCH. Every world holds the registry (World.stacks): epoch 0 is the
//     genesis stack derived from the static sublayer configs, and each
//     successful reconfiguration appends one. Each running entity's
//     current epoch is Proc.epoch, 0 for life when this layer is off, and
//     every per-entity or per-message read of a knob goes through
//     World.stack — no sublayer asks whether this layer exists.
//   - Every wire message is stamped with its sender's current epoch, and
//     the stamp is folded into the auth MAC, so a channel adversary
//     cannot migrate a message between epochs. A message sent under
//     epoch k is VERIFIED under epoch k's keys and judged under epoch
//     k's rules, however late it arrives.
//   - The handshake is two-phase with a quiescence drain. The initiator
//     registers the target epoch and floods a PREPARE carrying its
//     canonical wire encoding. Each node that first sees the prepare
//     re-floods it, then DRAINS: it waits until none of its own in-
//     flight reliable messages under older epochs remain (or a timeout
//     expires), then floods an ACK. When the initiator has collected
//     acks from a PrepareQuorum fraction of the entities present at
//     prepare time, it COMMITS: it floods the commit and switches; every
//     node switches on first sight of the commit. Switching is monotone
//     — a node never moves backward — and recorded as
//     core.MarkEpochSwitch for trace checkers.
//   - Epochs are FENCED at the receiver: a message more than FenceDepth
//     epochs behind the receiver's current epoch is dropped WITHOUT
//     striking the sender's misbehavior budget. The straggler is not an
//     attacker — it is an honest retransmission that crossed a
//     reconfiguration — and charging it would let a reconfig storm frame
//     honest nodes. Within the fence, old-epoch messages verify under
//     their own epoch's keys, which is what lets key rotation proceed
//     without tripping anti-replay windows (the aseq space is per pair,
//     not per key epoch) or laundering any standing quarantine (nothing
//     in the handshake touches the auth verdict maps).
//   - Nodes that miss the commit (absent, partitioned) CATCH UP: any
//     verified message stamped with a newer committed epoch advances the
//     receiver, and a joiner bootstraps at the latest committed epoch.
//
// What this layer itself holds is only the handshake: one epochRound per
// registered epoch, the latest committed epoch and the counters. Each
// running entity's flood dedup (reconfigNode) lives on its Proc and dies
// with the session.
//
// What reconfiguration deliberately does NOT do: it never clears
// quarantines, convictions, strikes, anti-replay windows, receipt pins
// or parole deadlines. A reconfiguration changes the stack's PARAMETERS;
// the security ledger is identity state, and laundering it through a
// config change would be exactly the attack E26 storms for.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Reconfiguration handshake message tags. Like acks and audit traffic,
// handshake messages terminate in the runtime: behaviors never see them,
// and the audit sublayer does not stamp them (receipts about the
// machinery that changes receipt retention would chase their own tail).
const (
	// ReconfigPrepareTag carries a reconfigPrepare (epoch + canonical
	// StackConfig wire bytes) on its flood away from the initiator.
	ReconfigPrepareTag = "node.reconf-prepare"
	// ReconfigAckTag carries a reconfigAck flooded toward the initiator
	// once a node's drain completes.
	ReconfigAckTag = "node.reconf-ack"
	// ReconfigCommitTag carries a reconfigCommit flooded from the
	// initiator once the prepare quorum has acked.
	ReconfigCommitTag = "node.reconf-commit"
)

// Trace mark tags emitted by the reconfiguration layer. The switch
// itself is recorded as core.MarkEpochSwitch (the core package owns that
// tag so trace checkers need not import this one).
const (
	// MarkEpochFenced is recorded at the receiver when a copy is dropped
	// for being more than FenceDepth epochs stale. No strike is charged:
	// the straggler is presumed an honest retransmission that crossed a
	// reconfiguration, not an attack.
	MarkEpochFenced = "reconf.fenced"
	// MarkDrainTimeout is recorded at a node whose quiescence drain hit
	// DrainTimeout with old-epoch messages still in flight; it acks
	// anyway (liveness over perfect quiescence — the fence and the
	// per-epoch MAC keep the stragglers safe).
	MarkDrainTimeout = "reconf.drain-timeout"
)

// StackConfig is the reconfigurable slice of the protocol stack, the
// unit the handshake versions as one epoch. Zero fields mean the
// documented defaults, exactly as in every sublayer config.
type StackConfig struct {
	// Adaptive selects the reliable sublayer's RTO policy for messages
	// sent under this epoch: Jacobson/Karels adaptive when true, the
	// fixed RetransmitAfter schedule when false.
	Adaptive bool
	// KeyEpoch selects the auth key generation: pair keys are derived
	// from (KeyEpoch, pair), so bumping it rotates every pair
	// key at once. Messages verify under the key epoch of the stack
	// epoch they were stamped with, so in-flight traffic survives the
	// rotation. 0 is the genesis generation.
	KeyEpoch uint64
	// Retain caps the audit sublayer's receipt store per entity under
	// this epoch. Default 256 (the audit default).
	Retain int
	// PullFanout is the audit pull anti-entropy fanout under this epoch.
	// Default 2, the genesis fanout.
	PullFanout int
	// Retention selects the audit receipt eviction policy under this
	// epoch: RetentionPinned (default) or RetentionFIFO.
	Retention string
	// Durable selects the identity keying for Leave/Join transitions
	// executed under this epoch (see IdentityConfig.Durable).
	Durable bool
	// FenceDepth is how many epochs behind the receiver's current epoch
	// a message may be stamped and still be admitted. Older copies are
	// dropped without a strike. In [1, 16]; 0 means the default, 2.
	FenceDepth int
	// DrainTimeout bounds the quiescence drain: a node whose old-epoch
	// in-flight messages have not settled within this many ticks acks
	// anyway. Default 32.
	DrainTimeout sim.Time
	// PrepareQuorum is the fraction of entities present at prepare time
	// whose acks the initiator needs before committing, in (0, 1];
	// 0 means the default, 0.5.
	PrepareQuorum float64
}

func (sc StackConfig) withDefaults() StackConfig {
	if sc.Retain == 0 {
		sc.Retain = defaultRetain
	}
	if sc.PullFanout == 0 {
		sc.PullFanout = defaultPullFanout
	}
	if sc.Retention == "" {
		sc.Retention = defaultRetention
	}
	if sc.FenceDepth == 0 {
		sc.FenceDepth = 2
	}
	if sc.DrainTimeout == 0 {
		sc.DrainTimeout = 32
	}
	if sc.PrepareQuorum == 0 {
		sc.PrepareQuorum = 0.5
	}
	return sc
}

// maxFenceDepth bounds the epoch fence representable on the wire.
const maxFenceDepth = 16

// Validate reports the first configuration error, or nil. Zero fields
// mean their defaults, exactly as in Config.Validate.
func (sc StackConfig) Validate() error {
	if sc.Retain < 0 {
		return fmt.Errorf("node: negative stack Retain %d", sc.Retain)
	}
	if sc.PullFanout < 0 {
		return fmt.Errorf("node: negative stack PullFanout %d", sc.PullFanout)
	}
	switch sc.Retention {
	case "", RetentionPinned, RetentionFIFO:
	default:
		return fmt.Errorf("node: unknown stack Retention %q", sc.Retention)
	}
	if sc.FenceDepth < 0 || sc.FenceDepth > maxFenceDepth {
		return fmt.Errorf("node: stack FenceDepth %d outside [0, %d] (0 means the default, 2)", sc.FenceDepth, maxFenceDepth)
	}
	if sc.DrainTimeout < 0 {
		return fmt.Errorf("node: negative stack DrainTimeout %d", sc.DrainTimeout)
	}
	if sc.PrepareQuorum != 0 && (math.IsNaN(sc.PrepareQuorum) || sc.PrepareQuorum <= 0 || sc.PrepareQuorum > 1) {
		return fmt.Errorf("node: stack PrepareQuorum %v outside (0, 1] (0 means the default, 0.5)", sc.PrepareQuorum)
	}
	return nil
}

// stackWire is the canonical fixed-width encoding length of a resolved
// StackConfig: KeyEpoch, Retain, PullFanout, DrainTimeout,
// PrepareQuorum bits, FenceDepth, flags, retention enum.
const stackWire = 8 + 4 + 4 + 8 + 8 + 4 + 1 + 1

// Stack flag bits and retention enum values on the wire.
const (
	stackFlagAdaptive = 1 << 0
	stackFlagDurable  = 1 << 1

	stackRetentionPinned = 0
	stackRetentionFIFO   = 1
)

// EncodeStackConfig renders a RESOLVED stack config (withDefaults
// applied, Validate passing) in its canonical 38-byte wire form — what
// the prepare flood carries so every node can verify it is draining
// toward the same target the initiator registered. Encoding an
// unresolved or invalid config panics: only resolved configs travel.
func EncodeStackConfig(sc StackConfig) []byte {
	if err := sc.Validate(); err != nil {
		panic(err.Error())
	}
	if sc.Retain < 1 || sc.PullFanout < 1 || sc.Retention == "" ||
		sc.FenceDepth < 1 || sc.DrainTimeout < 1 ||
		!(sc.PrepareQuorum > 0 && sc.PrepareQuorum <= 1) {
		panic(fmt.Sprintf("node: encoding unresolved stack config %+v", sc))
	}
	out := make([]byte, stackWire)
	binary.LittleEndian.PutUint64(out[0:], sc.KeyEpoch)
	binary.LittleEndian.PutUint32(out[8:], uint32(sc.Retain))
	binary.LittleEndian.PutUint32(out[12:], uint32(sc.PullFanout))
	binary.LittleEndian.PutUint64(out[16:], uint64(sc.DrainTimeout))
	binary.LittleEndian.PutUint64(out[24:], math.Float64bits(sc.PrepareQuorum))
	binary.LittleEndian.PutUint32(out[32:], uint32(sc.FenceDepth))
	var flags byte
	if sc.Adaptive {
		flags |= stackFlagAdaptive
	}
	if sc.Durable {
		flags |= stackFlagDurable
	}
	out[36] = flags
	if sc.Retention == RetentionFIFO {
		out[37] = stackRetentionFIFO
	} else {
		out[37] = stackRetentionPinned
	}
	return out
}

// DecodeStackConfig parses the canonical wire form, rejecting wrong
// lengths, unknown flag bits or retention values, and field values a
// resolved config can never hold. Accepted inputs re-encode
// byte-identically, and encoded resolved configs decode to themselves.
func DecodeStackConfig(b []byte) (StackConfig, error) {
	if len(b) != stackWire {
		return StackConfig{}, fmt.Errorf("node: stack config wire form is %d bytes, got %d", stackWire, len(b))
	}
	var sc StackConfig
	sc.KeyEpoch = binary.LittleEndian.Uint64(b[0:])
	retain := binary.LittleEndian.Uint32(b[8:])
	fanout := binary.LittleEndian.Uint32(b[12:])
	drain := binary.LittleEndian.Uint64(b[16:])
	quorum := math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	fence := binary.LittleEndian.Uint32(b[32:])
	flags := b[36]
	if retain < 1 || retain > identCounterMax {
		return StackConfig{}, fmt.Errorf("node: stack config Retain %d outside [1, %d]", retain, identCounterMax)
	}
	if fanout < 1 || fanout > identCounterMax {
		return StackConfig{}, fmt.Errorf("node: stack config PullFanout %d outside [1, %d]", fanout, identCounterMax)
	}
	if int64(drain) < 1 {
		return StackConfig{}, fmt.Errorf("node: stack config DrainTimeout %d outside [1, max]", int64(drain))
	}
	if !(quorum > 0 && quorum <= 1) {
		return StackConfig{}, fmt.Errorf("node: stack config PrepareQuorum %v outside (0, 1]", quorum)
	}
	if fence < 1 || fence > maxFenceDepth {
		return StackConfig{}, fmt.Errorf("node: stack config FenceDepth %d outside [1, %d]", fence, maxFenceDepth)
	}
	if flags&^(stackFlagAdaptive|stackFlagDurable) != 0 {
		return StackConfig{}, fmt.Errorf("node: stack config carries unknown flag bits %#x", flags)
	}
	switch b[37] {
	case stackRetentionPinned:
		sc.Retention = RetentionPinned
	case stackRetentionFIFO:
		sc.Retention = RetentionFIFO
	default:
		return StackConfig{}, fmt.Errorf("node: stack config carries unknown retention %d", b[37])
	}
	sc.Retain = int(retain)
	sc.PullFanout = int(fanout)
	sc.DrainTimeout = sim.Time(drain)
	sc.PrepareQuorum = quorum
	sc.FenceDepth = int(fence)
	sc.Adaptive = flags&stackFlagAdaptive != 0
	sc.Durable = flags&stackFlagDurable != 0
	return sc, nil
}

// ReconfigConfig parameterizes the reconfiguration layer.
type ReconfigConfig struct {
	// Enabled turns the layer on. Off (the default), the stack is frozen
	// at NewWorld and no handshake machinery exists: every entity stays at
	// the genesis epoch 0, so the wire format, MAC inputs and rng draw
	// sequence are bit-identical to a build without this file.
	Enabled bool
}

// ReconfigCounters are the world-level reconfiguration totals.
type ReconfigCounters struct {
	// Initiated counts epochs registered by Reconfigure.
	Initiated int
	// Committed counts epochs that reached their prepare quorum.
	Committed int
	// Switches counts per-node epoch switches (commit flood or catch-up).
	Switches int
	// CatchUps counts switches triggered by verified traffic stamped
	// with a newer committed epoch rather than by the commit flood.
	CatchUps int
	// Prepares, Acks and Commits count first-sight handshake messages
	// processed at nodes (re-floods of already-seen copies not included).
	Prepares, Acks, Commits int
	// Drains counts quiescence drains that completed cleanly;
	// DrainTimeouts counts drains that acked at the timeout with
	// old-epoch messages still in flight.
	Drains, DrainTimeouts int
	// StaleEpochDrops counts copies dropped by the epoch fence.
	StaleEpochDrops int
	// BadWire counts handshake messages whose payload failed validation
	// (malformed wire bytes, unknown epoch, divergent prepare encoding).
	BadWire int
}

// Handshake payloads. None implement Tamperable: the handshake's
// integrity comes from the MAC plus the prepare's canonical encoding
// check, and a mutated payload is dropped, never misinterpreted.
type reconfigPrepare struct {
	Epoch uint64
	Wire  []byte
}

type reconfigAck struct {
	Epoch uint64
	Acker graph.NodeID
}

type reconfigCommit struct {
	Epoch uint64
}

// Fingerprint implements Fingerprinter.
func (m reconfigPrepare) Fingerprint() uint64 { return foldBytes(fold(fpPrepare, m.Epoch), m.Wire) }

// Fingerprint implements Fingerprinter.
func (m reconfigAck) Fingerprint() uint64 {
	return fold(fold(fpReconfigAck, m.Epoch), uint64(m.Acker))
}

// Fingerprint implements Fingerprinter.
func (m reconfigCommit) Fingerprint() uint64 { return fold(fpCommit, m.Epoch) }

type reconfigAckKey struct {
	epoch uint64
	acker graph.NodeID
}

// reconfigNode is one running entity's handshake session state: the
// per-session dedup of the three floods. bringUp allocates it on the Proc
// when the layer is on, and it dies with the session.
type reconfigNode struct {
	prepSeen   map[uint64]bool
	ackSeen    map[reconfigAckKey]bool
	commitSeen map[uint64]bool
}

// firstSight records k in a flood's dedup set and reports whether it was
// new there.
func firstSight[K comparable](set *map[K]bool, k K) bool {
	if (*set)[k] {
		return false
	}
	lazySet(set, k, true)
	return true
}

// epochRound is the handshake's record of one registered epoch, whose
// stack is World.stacks at the same index: whether it committed, which
// entity initiated it, how many entities were present at prepare time
// (crashed ones, which can never ack, excluded), and the distinct ackers
// tallied at the initiator.
type epochRound struct {
	committed  bool
	initiator  graph.NodeID
	quorumBase int
	ackers     map[graph.NodeID]bool
}

type reconfigLayer struct {
	// rounds parallels World.stacks. Epoch 0 (genesis) is committed from
	// birth.
	rounds []epochRound
	// latest is the highest committed epoch — what joiners bootstrap to
	// and catch-up advances toward.
	latest   uint64
	counters ReconfigCounters
}

func newReconfigLayer() *reconfigLayer {
	return &reconfigLayer{rounds: []epochRound{{committed: true}}}
}

func isReconfigTag(tag string) bool {
	return tag == ReconfigPrepareTag || tag == ReconfigAckTag || tag == ReconfigCommitTag
}

// stack returns epoch e's resolved stack: the one read path of every
// epoch-governed knob. The registry is clamped (a stamped epoch beyond it
// can only be a mutation, which the MAC check rejects anyway; clamping
// keeps the lookup total). It returns a copy, never a pointer that
// Reconfigure's append could leave stale.
func (w *World) stack(e uint64) StackConfig {
	if e >= uint64(len(w.stacks)) {
		e = uint64(len(w.stacks) - 1)
	}
	return w.stacks[e]
}

// admitEpoch is the reconfig.fence stage: a copy stamped more than
// FenceDepth epochs behind the receiver's current epoch is dropped
// WITHOUT a strike — the property that keeps reconfig storms from framing
// honest senders (see rankFence).
func (rc *reconfigLayer) admitEpoch(w *World, q *Proc, m Message) bool {
	cur := q.epoch
	depth := uint64(w.stack(cur).FenceDepth)
	if cur > m.epoch && cur-m.epoch > depth {
		now := int64(w.Engine.Now())
		rc.counters.StaleEpochDrops++
		w.Trace.Mark(now, m.To, MarkEpochFenced)
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return false
	}
	return true
}

// catchUp is the reconfig.catchup stage: a verified copy stamped with a
// newer committed epoch advances the receiver, and handshake traffic
// terminates.
func (rc *reconfigLayer) catchUp(w *World, q *Proc, m Message) bool {
	if m.epoch > q.epoch && m.epoch < uint64(len(rc.rounds)) && rc.rounds[m.epoch].committed {
		rc.switchTo(w, q, m.epoch, true)
	}
	return !isReconfigTag(m.Tag) || w.terminate(q, m, rc.onReconfig)
}

// switchTo moves a node to epoch e (monotone; backward moves are
// no-ops), marks the switch for trace checkers, and applies the new
// epoch's audit retention immediately.
func (rc *reconfigLayer) switchTo(w *World, p *Proc, e uint64, catchup bool) {
	if e <= p.epoch || e >= uint64(len(rc.rounds)) {
		return
	}
	p.epoch = e
	rc.counters.Switches++
	if catchup {
		rc.counters.CatchUps++
	}
	w.Trace.Mark(int64(w.Engine.Now()), p.ID, core.MarkEpochSwitch)
	if w.audit != nil {
		// A tightened Retain takes effect now, under the new epoch's
		// retention policy; pins survive, so no conviction evidence is
		// laundered by the shrink.
		w.audit.enforceRetain(w, p)
	}
}

// recordCommit marks an epoch committed (idempotent) and advances the
// joiner bootstrap point.
func (rc *reconfigLayer) recordCommit(e uint64) {
	if e >= uint64(len(rc.rounds)) || rc.rounds[e].committed {
		return
	}
	rc.rounds[e].committed = true
	rc.counters.Committed++
	if e > rc.latest {
		rc.latest = e
	}
}

// quorumNeeded is the ack count epoch e's commit requires: the target
// epoch's PrepareQuorum fraction of the quorum base, rounded up, at
// least 1.
func (rc *reconfigLayer) quorumNeeded(w *World, e uint64) int {
	n := int(math.Ceil(w.stack(e).PrepareQuorum * float64(rc.rounds[e].quorumBase)))
	if n < 1 {
		n = 1
	}
	return n
}

// recordAck tallies one distinct acker for epoch e at the initiator and
// commits when the quorum lands.
func (rc *reconfigLayer) recordAck(w *World, e uint64, acker graph.NodeID) {
	r := &rc.rounds[e]
	if !firstSight(&r.ackers, acker) || r.committed || len(r.ackers) < rc.quorumNeeded(w, e) {
		return
	}
	rc.recordCommit(e)
	p := w.Proc(r.initiator)
	if p == nil || !p.alive {
		// The initiator left between prepare and quorum; the epoch is
		// committed in the registry and propagates by catch-up only.
		return
	}
	rc.switchTo(w, p, e, false)
	p.sendAllBut(p.ID, ReconfigCommitTag, reconfigCommit{Epoch: e})
}

// drain runs a node's quiescence wait for epoch e: poll once per tick
// until no own old-epoch messages remain in flight (ack then), or the
// deadline passes (ack anyway, counted and marked — the fence and the
// per-epoch MAC keep the stragglers correct, so liveness wins). One
// closure serves every tick of the wait.
func (rc *reconfigLayer) drain(w *World, p *Proc, e uint64) {
	deadline := w.Engine.Now() + w.stack(e).DrainTimeout
	var step func()
	step = func() {
		if !p.alive {
			return
		}
		if p.rel == nil || !p.rel.hasOldPending(e) {
			rc.counters.Drains++
			rc.sendAck(w, p, e)
			return
		}
		if w.Engine.Now() >= deadline {
			rc.counters.DrainTimeouts++
			w.Trace.Mark(int64(w.Engine.Now()), p.ID, MarkDrainTimeout)
			rc.sendAck(w, p, e)
			return
		}
		p.After(1, step)
	}
	step()
}

// sendAck floods a node's drain-complete ack and tallies it locally if
// the node is itself the initiator.
func (rc *reconfigLayer) sendAck(w *World, p *Proc, e uint64) {
	if !firstSight(&p.reconf.ackSeen, reconfigAckKey{epoch: e, acker: p.ID}) {
		return
	}
	if rc.rounds[e].initiator == p.ID {
		rc.recordAck(w, e, p.ID)
	}
	p.sendAllBut(p.ID, ReconfigAckTag, reconfigAck{Epoch: e, Acker: p.ID})
}

// onPrepare handles a prepare's first sight at a node: check the carried
// wire bytes against the registered epoch (a divergent prepare — an
// epoch-split attempt — is dropped and counted), re-flood m's payload,
// drain.
func (rc *reconfigLayer) onPrepare(w *World, p *Proc, m Message, pr reconfigPrepare) {
	e := pr.Epoch
	if e == 0 || e >= uint64(len(rc.rounds)) {
		rc.counters.BadWire++
		return
	}
	dec, err := DecodeStackConfig(pr.Wire)
	if err != nil || dec != w.stack(e) {
		rc.counters.BadWire++
		return
	}
	if !firstSight(&p.reconf.prepSeen, e) {
		return
	}
	rc.counters.Prepares++
	p.sendAllBut(m.From, ReconfigPrepareTag, m.Payload)
	rc.drain(w, p, e)
}

// onReconfig terminates handshake traffic at the receiver p.
func (rc *reconfigLayer) onReconfig(w *World, p *Proc, m Message) {
	switch pl := m.Payload.(type) {
	case reconfigPrepare:
		rc.onPrepare(w, p, m, pl)
	case reconfigAck:
		e := pl.Epoch
		if e == 0 || e >= uint64(len(rc.rounds)) {
			rc.counters.BadWire++
			return
		}
		if !firstSight(&p.reconf.ackSeen, reconfigAckKey{epoch: e, acker: pl.Acker}) {
			return
		}
		rc.counters.Acks++
		if rc.rounds[e].initiator == p.ID {
			rc.recordAck(w, e, pl.Acker)
		}
		p.sendAllBut(m.From, ReconfigAckTag, m.Payload)
	case reconfigCommit:
		e := pl.Epoch
		if e == 0 || e >= uint64(len(rc.rounds)) {
			rc.counters.BadWire++
			return
		}
		if !firstSight(&p.reconf.commitSeen, e) {
			return
		}
		rc.counters.Commits++
		rc.recordCommit(e)
		rc.switchTo(w, p, e, false)
		p.sendAllBut(m.From, ReconfigCommitTag, m.Payload)
	default:
		rc.counters.BadWire++
	}
}

// Reconfigure registers a target stack as the next epoch, floods the
// prepare from the initiating entity and starts its drain. It returns
// the new epoch number. The target's zero fields resolve to their
// defaults; an invalid target, a disabled layer or an absent initiator
// panics — drivers validate first, exactly as NewWorld's contract.
func (w *World) Reconfigure(initiator graph.NodeID, target StackConfig) uint64 {
	if w.reconfig == nil {
		panic("node: Reconfigure on a world without the reconfiguration layer (Config.Reconfig.Enabled)")
	}
	p := w.Proc(initiator)
	if p == nil || !p.alive {
		panic(fmt.Sprintf("node: reconfiguration initiator %d is not present", initiator))
	}
	if err := target.Validate(); err != nil {
		panic(err.Error())
	}
	target = target.withDefaults()
	rc := w.reconfig
	e := uint64(len(w.stacks))
	w.stacks = append(w.stacks, target)
	rc.rounds = append(rc.rounds, epochRound{initiator: initiator, quorumBase: w.PresentCount()})
	rc.counters.Initiated++
	firstSight(&p.reconf.prepSeen, e)
	pr := reconfigPrepare{Epoch: e, Wire: EncodeStackConfig(target)}
	p.sendAllBut(p.ID, ReconfigPrepareTag, pr)
	rc.drain(w, p, e)
	return e
}

// ReconfigEnabled reports whether the reconfiguration layer is on.
func (w *World) ReconfigEnabled() bool { return w.reconfig != nil }

// GenesisStack returns epoch 0's resolved stack — the sublayer configs'
// view of the world as built, whether or not the layer is enabled, so
// callers (fault clauses flipping knobs relative to genesis) need not
// special-case.
func (w *World) GenesisStack() StackConfig { return w.stacks[0] }

// genesisStack derives epoch 0 from the resolved sublayer configs: they
// are the one source of truth for what the world starts as. The pull
// fanout and the handshake knobs (FenceDepth, DrainTimeout,
// PrepareQuorum) start at their defaults and KeyEpoch at 0.
func (w *World) genesisStack() StackConfig {
	audit := w.cfg.Audit.withDefaults()
	return StackConfig{
		Adaptive:  w.cfg.Reliable.Enabled && w.cfg.Reliable.Adaptive,
		Durable:   w.cfg.Identity.Durable,
		Retain:    audit.Retain,
		Retention: audit.Retention,
	}.withDefaults()
}

// StackOf returns the stack an entity currently operates under (the
// genesis stack when the layer is disabled or the entity is absent).
func (w *World) StackOf(id graph.NodeID) StackConfig { return w.stack(w.EpochOf(id)) }

// EpochOf returns an entity's current stack epoch (0 when the layer is
// disabled or the entity is absent).
func (w *World) EpochOf(id graph.NodeID) uint64 {
	if p := w.Proc(id); p != nil {
		return p.epoch
	}
	return 0
}

// LatestEpoch returns the highest committed epoch (0 when disabled).
func (w *World) LatestEpoch() uint64 {
	if w.reconfig == nil {
		return 0
	}
	return w.reconfig.latest
}

// ReconfigTotals returns the world-level reconfiguration counters (the
// zero value when the layer is disabled).
func (w *World) ReconfigTotals() ReconfigCounters {
	if w.reconfig == nil {
		return ReconfigCounters{}
	}
	return w.reconfig.counters
}
