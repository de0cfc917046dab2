package node

// The authentication sublayer: an opt-in defense against Byzantine channel
// behavior, sitting under Proc.Send exactly like the reliable sublayer.
// Every outgoing message is tagged with an HMAC-style authenticator over
// (per-pair key, per-pair sequence number, message tag, payload) before it
// enters the channel; the receiver recomputes the tag, rejects copies
// whose tag does not verify (in-flight corruption, sender forgery — with
// per-pair keys a spoofed sender never holds the right key), rejects
// replayed sequence numbers through a sliding anti-replay window, and
// quarantines a neighbor link once its misbehavior exhausts a budget.
//
// What the sublayer can NOT defend against: a Byzantine SENDER that signs
// its own lies. Equivocation (divergent copies of one logical broadcast)
// carries a valid tag on every copy, because the sender tags each lie with
// the real pair key — detecting it needs transferable authentication
// (signatures) plus cross-neighbor comparison, which per-pair MACs cannot
// provide. The fault DSL models this distinction precisely: equivocation
// clauses mutate the payload BEFORE tagging, corruption clauses after.
// The opt-in audit sublayer (audit.go) supplies exactly that missing
// piece: transferable per-message signatures plus cross-receiver receipt
// gossip, converging on this layer's quarantine machinery once a lie is
// proven.
//
// Quarantine is per-neighbor (per directed link), not global: entities
// arrive anonymously and are known only to their neighbors, so there is no
// authority to pronounce a global verdict, and evidence against a claimed
// sender is only meaningful to the entity that verified it. The cost of
// this locality is that a forger can frame an honest entity on the links
// it attacks — the framed entity's direct traffic dies there, and only
// multi-path dissemination routes around the false quarantine.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Trace mark tags emitted by the authentication sublayer.
const (
	// MarkAuthRejectCorrupt is recorded at the receiver when a copy's
	// authenticator does not verify (corruption or forgery — the receiver
	// cannot tell which; both mangle the tag).
	MarkAuthRejectCorrupt = "auth.reject-corrupt"
	// MarkAuthRejectReplay is recorded at the receiver when a copy carries
	// a valid authenticator but an already-accepted or out-of-window
	// sequence number.
	MarkAuthRejectReplay = "auth.reject-replay"
	// MarkAuthQuarantine is recorded at the OFFENDER (the claimed sender)
	// when some receiver's misbehavior budget for it runs out, so that
	// trace checkers can collect the quarantined set without knowing the
	// sublayer's internals.
	MarkAuthQuarantine = "auth.quarantine"
	// MarkAuthParole is recorded at the OFFENDER when a receiver's parole
	// timer reinstates a quarantined link (with a halved budget).
	MarkAuthParole = "auth.parole"
)

// AuthConfig parameterizes the authentication sublayer.
type AuthConfig struct {
	// Enabled turns the sublayer on.
	Enabled bool
	// KeySeed derives the per-pair keys. Two worlds sharing a KeySeed
	// derive identical keys; zero is a valid seed.
	KeySeed uint64
	// ReplayWindow is how far behind the highest accepted sequence number
	// an out-of-order copy may arrive and still be accepted (reordered
	// channels deliver legitimately late copies). At most 64. Default 64.
	ReplayWindow int
	// Budget is the number of rejected copies a receiver tolerates from
	// one claimed sender before quarantining that link. Default 3.
	Budget int
	// Parole, when positive, reinstates a quarantined link that many ticks
	// after the quarantine decision — with the link's misbehavior budget
	// HALVED, so a framed scapegoat recovers once the forger moves on while
	// a repeat offender re-quarantines geometrically faster each round
	// (budget 3 -> 1 -> 0, where 0 means the first further rejection
	// re-quarantines). Zero keeps quarantine permanent (the E22 behavior).
	Parole int64
}

func (ac AuthConfig) withDefaults() AuthConfig {
	if ac.ReplayWindow == 0 {
		ac.ReplayWindow = 64
	}
	if ac.Budget == 0 {
		ac.Budget = 3
	}
	return ac
}

// Validate reports the first configuration error, or nil. Zero fields mean
// their defaults, exactly as in Config.Validate: ReplayWindow 0 selects the
// default width of 64, so the rejected range is exactly what the message
// states.
func (ac AuthConfig) Validate() error {
	if ac.ReplayWindow < 0 || ac.ReplayWindow > 64 {
		return fmt.Errorf("node: auth ReplayWindow %d outside [0, 64] (0 means the default, 64)", ac.ReplayWindow)
	}
	if ac.Budget < 0 {
		return fmt.Errorf("node: negative auth Budget %d", ac.Budget)
	}
	if ac.Parole < 0 {
		return fmt.Errorf("node: negative auth Parole %d", ac.Parole)
	}
	return nil
}

// AuthCounters are the receiver-side authentication statistics, summed
// over every entity of the run.
type AuthCounters struct {
	// Accepted counts copies that passed both checks.
	Accepted int
	// RejectedCorrupt counts copies whose authenticator did not verify.
	RejectedCorrupt int
	// RejectedReplay counts copies with a stale sequence number.
	RejectedReplay int
	// Quarantines counts neighbor links this entity quarantined.
	Quarantines int
	// DroppedQuarantined counts copies dropped because their claimed
	// sender was already quarantined here.
	DroppedQuarantined int
}

// QuarantineEvent records one quarantine decision: By stopped listening to
// Offender at time At.
type QuarantineEvent struct {
	At       int64
	By       graph.NodeID
	Offender graph.NodeID
}

// replayWindow is an IPsec-style sliding anti-replay window: the highest
// accepted sequence number plus a bitmap of the w numbers below it. The
// fresh state is an explicit flag, not a value encoding: (hi=0, bits=0)
// never doubles as "uninitialized", so the first accepted sequence number
// can be anything without aliasing the empty window.
type replayWindow struct {
	inited bool
	hi     uint64
	bits   uint64 // bit i set = hi-i accepted
}

func (rw *replayWindow) accept(seq uint64, width int) bool {
	if !rw.inited {
		rw.inited, rw.hi, rw.bits = true, seq, 1
		return true
	}
	if seq > rw.hi {
		shift := seq - rw.hi
		if shift >= 64 {
			rw.bits = 0
		} else {
			rw.bits <<= shift
		}
		rw.bits |= 1
		rw.hi = seq
		return true
	}
	behind := rw.hi - seq
	if behind >= uint64(width) {
		return false // too old to judge: treat as replayed
	}
	if rw.bits&(1<<behind) != 0 {
		return false // already accepted: replayed
	}
	rw.bits |= 1 << behind
	return true
}

// pairKeyID caches one derived pair key per (directed pair, key epoch):
// the reconfiguration layer rotates keys by bumping the stack's KeyEpoch,
// and in-flight copies still verify under the generation they were
// stamped with. Without reconfiguration ke is always 0.
type pairKeyID struct {
	pair [2]graph.NodeID
	ke   uint64
}

// authLink is what one receiver holds about one claimed sender: the
// anti-replay window, the misbehavior ledger and the quarantine verdict.
// The identity codec distinguishes "no entry" from a zero value, so the
// two counters carry explicit presence flags.
type authLink struct {
	window replayWindow
	// strikes is meaningful once struck: a strike or a parole wrote it (a
	// count of 0 after parole is still an entry).
	strikes int
	struck  bool
	// budget overrides cfg.Budget once parole has halved it.
	budget      int
	halved      bool
	quarantined bool
	// paroleAt is the absolute parole deadline of a quarantined link with
	// parole configured (0 = permanent, or not quarantined). Parole timers
	// check it on firing, so a stale timer — one whose link was dropped by
	// a crash or departure and possibly restored since — is a no-op, and
	// recovery re-arms the REMAINING time instead of restarting the clock.
	paroleAt int64
}

// authPeer is one entity's whole auth ledger, the unit a departure drops
// and the identity record persists: its send counters per destination —
// deliberately NOT per key epoch, the aseq space survives key rotation so
// peers' anti-replay windows stay valid across it — and the link it keeps
// about each claimed sender it has heard from.
type authPeer struct {
	sendSeq map[graph.NodeID]uint64
	links   map[graph.NodeID]*authLink
}

// link returns the ledger entry about one claimed sender, creating it.
func (ap *authPeer) link(about graph.NodeID) *authLink {
	l := ap.links[about]
	if l == nil {
		l = &authLink{}
		ap.links[about] = l
	}
	return l
}

func (ap *authPeer) quarantined(about graph.NodeID) bool {
	l := ap.links[about]
	return l != nil && l.quarantined
}

type authLayer struct {
	cfg AuthConfig
	// keys caches the derived per-pair keys by (pair, key epoch).
	keys map[pairKeyID]uint64
	// peers holds one ledger per entity with auth state in memory. Running
	// entities reach theirs through Proc.auth.
	peers   map[graph.NodeID]*authPeer
	totals  AuthCounters
	events  []QuarantineEvent
	paroles []QuarantineEvent
}

func newAuthLayer(cfg AuthConfig) *authLayer {
	return &authLayer{
		cfg:   cfg,
		keys:  make(map[pairKeyID]uint64),
		peers: make(map[graph.NodeID]*authPeer),
	}
}

// peer returns an entity's ledger, creating it on first use.
func (al *authLayer) peer(id graph.NodeID) *authPeer {
	ap := al.peers[id]
	if ap == nil {
		ap = &authPeer{sendSeq: make(map[graph.NodeID]uint64), links: make(map[graph.NodeID]*authLink)}
		al.peers[id] = ap
	}
	return ap
}

// linkOf looks up what by holds about one claimed sender without creating
// anything (nil when by has no ledger, or none about that sender).
func (al *authLayer) linkOf(by, about graph.NodeID) *authLink {
	if ap := al.peers[by]; ap != nil {
		return ap.links[about]
	}
	return nil
}

// pairKey derives the shared key of the directed pair (from, to) at key
// epoch ke. The derivation stands in for a key agreement run at link
// establishment (and re-run at each rotation); what matters to the model
// is that both endpoints of a link hold it and nobody else can produce
// it. The ke fold is an exact identity at 0, so a world that never
// rotates derives the same keys it always did.
func (al *authLayer) pairKey(from, to graph.NodeID, ke uint64) uint64 {
	id := pairKeyID{pair: [2]graph.NodeID{from, to}, ke: ke}
	if k, ok := al.keys[id]; ok {
		return k
	}
	k := rng.New(al.cfg.KeySeed ^ uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xc2b2ae3d27d4eb4f ^ ke*0x9e6c63d0876a9a47).Uint64()
	al.keys[id] = k
	return k
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// fingerprint reduces a payload to a deterministic digest. Digests are
// only compared, never recorded, so the contract is an equality relation:
// two payloads digest alike exactly when fnv1a(fmt.Sprintf("%T|%v")), the
// digest this replaced, printed them alike (up to 64-bit collisions). A
// Fingerprinter digests its own fields, node's unnamed wire types and the
// pex exchange it carries are folded here, and any other payload falls
// back to the fmt digest, under which a pointer-carrying payload digests
// by identity (a tampered copy is a different object). DESIGN.md, payload fingerprints, has the rules.
func fingerprint(payload any) uint64 {
	switch p := payload.(type) {
	case Fingerprinter:
		return p.Fingerprint()
	case []Receipt:
		return foldReceipts(fpReceipts, p)
	case [2]Receipt:
		return foldReceipts(fpReceiptPair, p[:])
	case []byte:
		return foldBytes(fpBytes, p)
	case pex.Exchange:
		h := uint64(fpExchange)
		if p.Pull {
			h = ^h
		}
		return foldBytes(h, p.Wire)
	case float64:
		return fold(fpFloat64, math.Float64bits(p))
	case nil:
		return fpNil
	}
	return fnv1a(fmt.Sprintf("%T|%v", payload, payload))
}

// Per-type fingerprint seeds: arbitrary distinct constants that do what
// %T did in the fmt digest, so equal fields under two types digest apart.
const (
	fpNil         = 0x6b01a1c12a3a2107
	fpFloat64     = 0x6b0404f2b09490b9
	fpBytes       = 0x48007596a28f5b37
	fpReceipts    = 0xd7e11b1b7aa6540d
	fpReceiptPair = 0xfd5e5ee3374cb757
	fpExchange    = 0xeeca8c285efcea77
	fpAck         = 0x79827b7acaea0519
	fpPrepare     = 0xf69542b8cecf8a17
	fpReconfigAck = 0x2eff2f128330550f
	fpCommit      = 0x870d6796814d31e9
	fpPullRequest = 0xc9d4d0203c6e3097
	fpPullResp    = 0x039d74ed00d0722d
)

// fold absorbs one word into a running fingerprint.
func fold(h, x uint64) uint64 { return rng.Mix64(h ^ x) }

// foldBytes absorbs a length-prefixed byte string, eight bytes a word.
func foldBytes(h uint64, b []byte) uint64 {
	h = fold(h, uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		h = fold(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail uint64
		for i, c := range b {
			tail |= uint64(c) << (8 * i)
		}
		h = fold(h, tail)
	}
	return h
}

// foldIDs absorbs a length-prefixed id list.
func foldIDs(h uint64, ids []graph.NodeID) uint64 {
	h = fold(h, uint64(len(ids)))
	for _, id := range ids {
		h = fold(h, uint64(id))
	}
	return h
}

// foldReceipts absorbs a length-prefixed receipt list.
func foldReceipts(h uint64, rs []Receipt) uint64 {
	h = fold(h, uint64(len(rs)))
	for _, r := range rs {
		h = fold(fold(fold(fold(h, uint64(r.Sender)), r.BSeq), r.FP), r.Sig)
	}
	return h
}

// macFor computes the HMAC-style authenticator of one message under the
// key of key epoch ke. The audit sublayer's broadcast sequence number and
// signature are folded in when present (both zero without the audit
// sublayer, which leaves the tag unchanged), so a channel adversary
// cannot rewrite them in flight without mangling the authenticator. The
// stack epoch is folded the same way (an identity at 0, reconfig off):
// migrating a copy between epochs mangles the tag too.
func (al *authLayer) macFor(ke uint64, from, to graph.NodeID, aseq uint64, tag string, bseq, sig, epoch uint64, payload any) uint64 {
	k := al.pairKey(from, to, ke)
	h := k ^ aseq*0xd6e8feb86659fd93
	h ^= fnv1a(tag) * 0xa5a5a5a5a5a5a5a5
	h ^= fingerprint(payload)
	h ^= bseq * 0x8cb92ba72f3d8dd7
	h ^= sig * 0xe7037ed1a0b428db
	h ^= epoch * 0x2545f4914f6cdd1d
	// One splitmix64 round so related inputs do not produce related tags.
	return rng.Mix64(h)
}

// tag authenticates an outgoing message of p in place: next per-pair
// sequence number, authenticator over everything the receiver will check,
// under the key generation of the message's (already stamped) stack epoch.
func (al *authLayer) tag(w *World, p *Proc, m *Message) {
	p.auth.sendSeq[m.To]++
	m.aseq = p.auth.sendSeq[m.To]
	m.mac = al.macFor(w.keyEpochFor(m.epoch), m.From, m.To, m.aseq, m.Tag, m.bseq, m.sig, m.epoch, m.Payload)
}

// identitySnapshot extracts the identity-keyed auth state of one entity —
// its per-pair send counters (the volatile sender side a crash would lose
// unless persisted) plus its own receiver-side security ledger: the
// anti-replay windows it keeps about peers, the strikes and halved
// budgets it charges them, and the quarantines it imposed with their
// absolute parole deadlines. The returned record is detached from the
// layer.
func (al *authLayer) identitySnapshot(id graph.NodeID) IdentityRecord {
	var rec IdentityRecord
	ap := al.peers[id]
	if ap == nil {
		return rec
	}
	for to, seq := range ap.sendSeq {
		lazySet(&rec.SendSeq, to, seq)
	}
	for peer, l := range ap.links {
		if l.window.inited {
			lazySet(&rec.Windows, peer, ReplayState{Hi: l.window.hi, Bits: l.window.bits})
		}
		if l.struck {
			lazySet(&rec.Strikes, peer, l.strikes)
		}
		if l.halved {
			lazySet(&rec.Budgets, peer, l.budget)
		}
		if l.quarantined {
			lazySet(&rec.Quarantined, peer, l.paroleAt)
		}
	}
	return rec
}

// dropIdentity forgets an entity's in-memory auth state, sender and
// receiver side — what a crash or departure does to state that was only
// in memory. Pending parole timers for the entity's quarantines retire
// with it: they look the link up on firing and find it gone (or replaced
// by a restore, which re-arms its own).
func (al *authLayer) dropIdentity(id graph.NodeID) { delete(al.peers, id) }

// restoreIdentity reinstates a persisted identity record on recovery or
// durable-identity rejoin. Quarantines come back with their parole timers
// re-armed for the time REMAINING to the original absolute deadline — a
// deadline that passed while the entity was down paroles immediately —
// so a crash mid-parole neither restarts the clock nor forgets the
// halved budget. Timers are armed in ascending offender order: deadlines
// that expired during the absence all fire at this tick, in arming order.
func (al *authLayer) restoreIdentity(w *World, id graph.NodeID, rec IdentityRecord) {
	ap := al.peer(id)
	for to, seq := range rec.SendSeq {
		ap.sendSeq[to] = seq
	}
	for from, ws := range rec.Windows {
		ap.link(from).window = replayWindow{inited: true, hi: ws.Hi, bits: ws.Bits}
	}
	for peer, n := range rec.Strikes {
		l := ap.link(peer)
		l.strikes, l.struck = n, true
	}
	for peer, b := range rec.Budgets {
		l := ap.link(peer)
		l.budget, l.halved = b, true
	}
	now := int64(w.Engine.Now())
	for _, offender := range sortedIDs(rec.Quarantined) {
		l := ap.link(offender)
		l.quarantined = true
		deadline := rec.Quarantined[offender]
		if deadline == 0 {
			continue // permanent (no parole configured at quarantine time)
		}
		l.paroleAt = deadline
		remaining := deadline - now
		if remaining < 0 {
			remaining = 0
		}
		al.scheduleParole(w, id, offender, deadline, sim.Time(remaining))
	}
}

// purgeAbout wipes every OTHER entity's receiver-side auth state about
// one identity — windows, strikes, budgets, quarantines — in one pass
// over the ledgers. This is what a session-keyed rejoin does (the new
// session is a fresh principal, so peers re-establish everything from
// scratch), and the returned count of standing quarantines it erased is
// the laundering measurement.
func (al *authLayer) purgeAbout(id graph.NodeID) int {
	wiped := 0
	for _, ap := range al.peers {
		if ap.quarantined(id) {
			wiped++
		}
		delete(ap.links, id)
	}
	return wiped
}

// admit is the receiver's first gate: quarantine filter, then
// authenticator verification. It records drops and marks itself; a false
// return means the copy must not proceed.
func (al *authLayer) admit(w *World, q *Proc, m Message) bool {
	now := int64(w.Engine.Now())
	if q.auth.quarantined(m.From) {
		al.totals.DroppedQuarantined++
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		return false
	}
	if m.aseq == 0 || m.mac != al.macFor(w.keyEpochFor(m.epoch), m.From, m.To, m.aseq, m.Tag, m.bseq, m.sig, m.epoch, m.Payload) {
		al.totals.RejectedCorrupt++
		w.Trace.Mark(now, m.To, MarkAuthRejectCorrupt)
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		al.strike(w, m.To, m.From)
		return false
	}
	return true
}

// admitSeq is the receiver's second gate: the anti-replay window. It runs
// after the reliable sublayer's duplicate suppression, so benign
// retransmissions never reach it — whatever it rejects was replayed by the
// channel, not retried by a well-behaved sender.
func (al *authLayer) admitSeq(w *World, q *Proc, m Message) bool {
	if !q.auth.link(m.From).window.accept(m.aseq, al.cfg.ReplayWindow) {
		now := int64(w.Engine.Now())
		al.totals.RejectedReplay++
		w.Trace.Mark(now, m.To, MarkAuthRejectReplay)
		w.Trace.Drop(now, m.From, m.To, m.Tag)
		al.strike(w, m.To, m.From)
		return false
	}
	al.totals.Accepted++
	return true
}

// budget returns a link's current misbehavior budget: the configured one
// until parole has halved it (and for a link with no ledger entry yet).
func (al *authLayer) budget(l *authLink) int {
	if l != nil && l.halved {
		return l.budget
	}
	return al.cfg.Budget
}

// strike charges one misbehavior to the (receiver, claimed sender) budget
// and quarantines the link when it runs out.
func (al *authLayer) strike(w *World, by, offender graph.NodeID) {
	l := al.peer(by).link(offender)
	l.strikes++
	l.struck = true
	if l.strikes <= al.budget(l) || l.quarantined {
		return
	}
	al.quarantine(w, by, offender)
}

// quarantine cuts the (by, offender) link and, with parole configured,
// schedules its timed reinstatement. Both the budget path (strike) and the
// audit sublayer's proof path converge here so parole governs every kind
// of quarantine uniformly.
func (al *authLayer) quarantine(w *World, by, offender graph.NodeID) {
	l := al.peer(by).link(offender)
	if l.quarantined {
		return
	}
	l.quarantined = true
	now := int64(w.Engine.Now())
	al.totals.Quarantines++
	w.Trace.Mark(now, offender, MarkAuthQuarantine)
	al.events = append(al.events, QuarantineEvent{At: now, By: by, Offender: offender})
	if w.pex != nil {
		// Mirror the verdict into the membership layer: evict everything
		// the offender fed the quarantining entity's view and cut the link.
		w.pex.onQuarantine(w, by, offender)
	}
	if al.cfg.Parole > 0 {
		l.paroleAt = now + al.cfg.Parole
		al.scheduleParole(w, by, offender, l.paroleAt, sim.Time(al.cfg.Parole))
	}
}

// scheduleParole arms one parole timer bound to an absolute deadline. The
// deadline check on firing makes timers from superseded quarantine state
// (dropped by a crash or departure, re-armed by a restore) no-ops.
func (al *authLayer) scheduleParole(w *World, by, offender graph.NodeID, deadline int64, in sim.Time) {
	w.Engine.After(in, func() {
		if l := al.linkOf(by, offender); l != nil && l.paroleAt == deadline {
			al.parole(w, by, offender, l)
		}
	})
}

// parole reinstates a quarantined link with its misbehavior budget halved:
// the strike count resets, but the next quarantine of the same link needs
// half as much evidence. A budget that reaches 0 re-quarantines on the
// first further rejection — the geometric squeeze on repeat offenders.
// Proof state the audit sublayer holds against the offender is cleared
// too; re-conviction requires fresh conflicting receipts.
func (al *authLayer) parole(w *World, by, offender graph.NodeID, l *authLink) {
	l.budget, l.halved = al.budget(l)/2, true
	l.strikes, l.struck = 0, true
	l.quarantined, l.paroleAt = false, 0
	now := int64(w.Engine.Now())
	w.Trace.Mark(now, offender, MarkAuthParole)
	al.paroles = append(al.paroles, QuarantineEvent{At: now, By: by, Offender: offender})
	if w.audit != nil {
		w.audit.pardon(by, offender)
	}
	if w.pex != nil {
		w.pex.pardon(by, offender)
	}
}

// AuthTotals sums the authentication sublayer's counters over every entity
// (the zero value when the sublayer is disabled).
func (w *World) AuthTotals() AuthCounters {
	if w.auth == nil {
		return AuthCounters{}
	}
	return w.auth.totals
}

// QuarantineEvents returns the quarantine decisions of the run, in time
// order (nil when the sublayer is disabled or nothing was quarantined).
func (w *World) QuarantineEvents() []QuarantineEvent {
	if w.auth == nil {
		return nil
	}
	out := make([]QuarantineEvent, len(w.auth.events))
	copy(out, w.auth.events)
	return out
}

// ParoleEvents returns the parole reinstatements of the run, in time order
// (nil when the sublayer is disabled or parole never fired).
func (w *World) ParoleEvents() []QuarantineEvent {
	if w.auth == nil {
		return nil
	}
	out := make([]QuarantineEvent, len(w.auth.paroles))
	copy(out, w.auth.paroles)
	return out
}

// Quarantined reports whether the (by, offender) link is currently cut.
func (w *World) Quarantined(by, offender graph.NodeID) bool {
	if w.auth == nil {
		return false
	}
	l := w.auth.linkOf(by, offender)
	return l != nil && l.quarantined
}
