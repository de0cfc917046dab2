package node

// Identity continuity across churn: the model's answer to quarantine
// laundering. The auth and audit sublayers accumulate security state
// about an entity — per-pair send counters, sliding anti-replay windows,
// misbehavior strikes and halved budgets, quarantine/parole decisions,
// the durable broadcast-sequence space. The question this file decides
// is what that state is KEYED to when the entity churns.
//
// Session-keyed identity (the default, and the paper's weakest honest
// reading of anonymous arrival): an entity's identity is its session.
// Leaving destroys the departing session's own sublayer state, and a
// later join under the same ID is a NEW principal — peers re-establish
// pair keys and windows from scratch and, crucially, forget what they
// held against the old session, convictions and quarantines included.
// That forgetting is exactly the laundering attack ROADMAP flags: a
// convicted equivocator leaves, rejoins, and resumes with a clean
// record. The wiped quarantines and convictions are counted (and trace-
// marked MarkIdentReset) so experiments can measure the laundering rate
// instead of inferring it.
//
// Durable identity (IdentityConfig.Durable): the entity holds a
// persistent identity key, so a rejoin is the SAME principal. On leave
// the entity's sender counters, anti-replay windows, strike/budget
// ledger, quarantine deadlines and broadcast counter are written to the
// stable store (the same Recoverable/StableStore machinery crash
// recovery uses, via the canonical wire codec below); on rejoin they are
// restored and parole timers are re-armed for their REMAINING time.
// Peers keep their own memory of the identity in place — which is what
// makes convictions stick: the rejoiner resumes its old sequence space,
// so honest churners are not misread as replay attackers, while a
// laundering attempt (discarding the stored record to restart counters
// at 1) lands inside peers' retained windows and re-quarantines.
//
// The codec is canonical — sections sorted by peer, fixed-width fields,
// no trailing bytes — so decode(encode(x)) == x and encode(decode(b))
// == b for every accepted b, which is what the fuzzer pins.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Trace mark tags emitted by the identity machinery.
const (
	// MarkIdentRestore is recorded at an entity when a durable-identity
	// rejoin restored its persisted identity record from the stable store.
	MarkIdentRestore = "ident.restore"
	// MarkIdentReset is recorded at an entity when a session-keyed rejoin
	// wiped peer-held quarantines or convictions against its old session —
	// the laundering event itself, visible to trace checkers.
	MarkIdentReset = "ident.reset"
)

// IdentityConfig selects how sublayer security state is keyed across
// Leave→Join cycles.
type IdentityConfig struct {
	// Durable gives every entity a persistent identity: its auth/audit
	// sender and receiver state survives Leave→Join through the stable
	// store, and peers keep their memory of it — convictions and
	// quarantines stick across sessions. Off by default: identity is the
	// session, and a rejoin is a fresh principal (peers' state about the
	// old session is wiped, which is the laundering surface E25 measures).
	Durable bool
}

// departedCap caps how many departed entities' identity records the
// world keeps pending rejoin in durable mode; past the cap a record is
// deleted from the stable store and that identity, should it return,
// starts fresh. It bounds the identity ledger under infinite-arrival
// churn (the M^infty regime). The cap never evicts a CONVICTING record —
// one whose holder had quarantined someone at departure — while any
// unpinned record remains, so a sybil join/leave flood cannot cycle a
// witness's verdicts out of the store before it rejoins (the
// departed-record mirror of the audit sublayer's eviction fix).
const departedCap = 1024

// IdentityCounters are the world-level identity bookkeeping totals.
type IdentityCounters struct {
	// Saves counts durable-mode departures that persisted a non-empty
	// identity record to the stable store.
	Saves int
	// Restores counts durable-mode rejoins that restored a persisted
	// record.
	Restores int
	// SessionResets counts session-keyed rejoins (every rejoin under the
	// default keying is a fresh principal, whether or not anything was
	// held against the old session).
	SessionResets int
	// QuarantinesLaundered counts standing quarantines against an old
	// session that a session-keyed rejoin wiped — successful launderings
	// of the auth layer's verdicts.
	QuarantinesLaundered int
	// ConvictionsLaundered counts standing equivocation convictions an
	// old session shed the same way.
	ConvictionsLaundered int
	// RecordsEvicted counts departed-identity records dropped past
	// departedCap.
	RecordsEvicted int
	// RecordsPinned counts departed-identity records pinned as
	// convicting (their holder had quarantined someone at departure).
	RecordsPinned int
}

// IdentityRecord is the durable identity state of one entity: everything
// the auth and audit sublayers key to it as a sender, plus its own
// receiver-side security ledger (windows it keeps about peers, strikes
// and budgets it charges them, quarantines it imposed with their parole
// deadlines). Crash persists it so recovery does not restart counters or
// parole clocks; durable-identity Leave persists it so rejoin is the
// same principal.
type IdentityRecord struct {
	// BSeqNext is the audit sublayer's broadcast counter (0 without it).
	BSeqNext uint64
	// SendSeq holds the per-pair send counters toward each peer.
	SendSeq map[graph.NodeID]uint64
	// Windows holds the sliding anti-replay windows kept about each peer.
	Windows map[graph.NodeID]ReplayState
	// Strikes and Budgets are the misbehavior ledger charged to each peer
	// (Budgets only where parole has halved the configured budget).
	Strikes map[graph.NodeID]int
	Budgets map[graph.NodeID]int
	// Quarantined maps each peer this entity quarantined to the absolute
	// parole deadline (0 = permanent).
	Quarantined map[graph.NodeID]int64
}

// ReplayState is the exported wire view of one anti-replay window.
type ReplayState struct {
	Hi   uint64
	Bits uint64
}

// Empty reports whether the record carries no state worth persisting.
func (rec IdentityRecord) Empty() bool {
	return rec.BSeqNext == 0 && len(rec.SendSeq) == 0 && len(rec.Windows) == 0 &&
		len(rec.Strikes) == 0 && len(rec.Budgets) == 0 && len(rec.Quarantined) == 0
}

// identWireLimit bounds per-section entry counts on the wire; it is far
// above any simulated neighborhood and keeps hostile counts from driving
// allocations.
const identWireLimit = 1 << 20

// identCounterMax bounds strike/budget values on the wire so they fit an
// int on every platform.
const identCounterMax = 1<<31 - 1

func sortedIDs[V any](m map[graph.NodeID]V) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// lazySet stores one entry in a map that is allocated on its first entry.
// Identity record sections need it — an empty section stays nil, which is
// what Empty and the codec's round trip compare against — and the
// per-entity sublayer records use it for the maps most entities never
// fill.
func lazySet[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// EncodeIdentity renders an identity record in its canonical wire form:
// the broadcast counter, then five sections (send counters, windows,
// strikes, budgets, quarantines), each a 4-byte count followed by
// fixed-width entries in strictly ascending peer order.
func EncodeIdentity(rec IdentityRecord) []byte {
	size := 8 + 5*4 + 16*len(rec.SendSeq) + 24*len(rec.Windows) +
		16*len(rec.Strikes) + 16*len(rec.Budgets) + 16*len(rec.Quarantined)
	out := make([]byte, 0, size)
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		out = append(out, buf[:8]...)
	}
	putU32 := func(v int) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		out = append(out, buf[:4]...)
	}
	putU64(rec.BSeqNext)
	putU32(len(rec.SendSeq))
	for _, id := range sortedIDs(rec.SendSeq) {
		putU64(uint64(id))
		putU64(rec.SendSeq[id])
	}
	putU32(len(rec.Windows))
	for _, id := range sortedIDs(rec.Windows) {
		w := rec.Windows[id]
		putU64(uint64(id))
		putU64(w.Hi)
		putU64(w.Bits)
	}
	putU32(len(rec.Strikes))
	for _, id := range sortedIDs(rec.Strikes) {
		putU64(uint64(id))
		putU64(uint64(rec.Strikes[id]))
	}
	putU32(len(rec.Budgets))
	for _, id := range sortedIDs(rec.Budgets) {
		putU64(uint64(id))
		putU64(uint64(rec.Budgets[id]))
	}
	putU32(len(rec.Quarantined))
	for _, id := range sortedIDs(rec.Quarantined) {
		putU64(uint64(id))
		putU64(uint64(rec.Quarantined[id]))
	}
	return out
}

type identReader struct {
	b   []byte
	off int
	err error
}

func (r *identReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = fmt.Errorf("node: identity record truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *identReader) count() int {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = fmt.Errorf("node: identity record truncated at byte %d", r.off)
		return 0
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	if n > identWireLimit {
		r.err = fmt.Errorf("node: identity record section of %d entries exceeds the %d limit", n, identWireLimit)
		return 0
	}
	// Each entry is at least 16 bytes; reject counts the remaining bytes
	// cannot possibly carry before allocating for them.
	if rest := len(r.b) - r.off; n > rest/16 {
		r.err = fmt.Errorf("node: identity record claims %d entries in %d bytes", n, rest)
		return 0
	}
	return n
}

// DecodeIdentity parses the canonical wire form, rejecting truncation,
// trailing bytes, unsorted or duplicate peers, and counter values that do
// not fit an int. Accepted inputs re-encode byte-identically.
func DecodeIdentity(b []byte) (IdentityRecord, error) {
	r := &identReader{b: b}
	rec := IdentityRecord{BSeqNext: r.u64()}
	section := func(entry func(id graph.NodeID) error) {
		if r.err != nil {
			return
		}
		n := r.count()
		prev := graph.NodeID(0)
		for i := 0; i < n && r.err == nil; i++ {
			id, err := graph.WireID(r.u64())
			if err != nil {
				r.err = fmt.Errorf("node: identity record peer: %w", err)
				return
			}
			if i > 0 && id <= prev {
				r.err = fmt.Errorf("node: identity record peers out of order (%d after %d)", id, prev)
				return
			}
			prev = id
			if err := entry(id); err != nil && r.err == nil {
				r.err = err
			}
		}
	}
	counter := func(name string, v uint64) (int, error) {
		if v > identCounterMax {
			return 0, fmt.Errorf("node: identity record %s %d exceeds %d", name, v, identCounterMax)
		}
		return int(v), nil
	}
	section(func(id graph.NodeID) error {
		lazySet(&rec.SendSeq, id, r.u64())
		return nil
	})
	section(func(id graph.NodeID) error {
		lazySet(&rec.Windows, id, ReplayState{Hi: r.u64(), Bits: r.u64()})
		return nil
	})
	section(func(id graph.NodeID) error {
		v, err := counter("strike count", r.u64())
		if err == nil {
			lazySet(&rec.Strikes, id, v)
		}
		return err
	})
	section(func(id graph.NodeID) error {
		v, err := counter("budget", r.u64())
		if err == nil {
			lazySet(&rec.Budgets, id, v)
		}
		return err
	})
	section(func(id graph.NodeID) error {
		v := r.u64()
		if int64(v) < 0 {
			return fmt.Errorf("node: identity record parole deadline %d is negative", int64(v))
		}
		lazySet(&rec.Quarantined, id, int64(v))
		return nil
	})
	if r.err != nil {
		return IdentityRecord{}, r.err
	}
	if r.off != len(b) {
		return IdentityRecord{}, fmt.Errorf("node: identity record carries %d trailing bytes", len(b)-r.off)
	}
	return rec, nil
}

// identityKeeper is a layer that keys security state to identities: auth
// and, on top of it, audit. Identity continuity walks them in
// registration order.
type identityKeeper interface {
	// snapshotIdentity adds the entity's identity-keyed state to rec.
	snapshotIdentity(id graph.NodeID, rec *IdentityRecord)
	// dropIdentity forgets the in-memory copy of that state.
	dropIdentity(id graph.NodeID)
	restoreIdentity(w *World, id graph.NodeID, rec IdentityRecord)
	// purgeAbout wipes every other entity's state about id, adds the
	// verdicts it wiped to the world's laundering counters and returns
	// their number.
	purgeAbout(w *World, id graph.NodeID) int
	// retire drops what the layer keeps for an identity past its session.
	retire(id graph.NodeID)
}

// identArrive is identity continuity's arrival hook (see World.Join and
// World.Recover). Identity keying is an epoch-governed knob: a joiner
// operates under the latest committed stack, so ITS durability — not the
// frozen genesis config — decides whether a join restores or resets. The
// verdicts a reset wipes are counted and trace-marked as laundering.
//
// An identity whose last departure was a session-keyed leave has no
// record to restore, and its peers still hold what that session showed
// them (receipts, replay windows). So it arrives as a fresh principal
// even under a durable stack: restarted counters inside that memory
// would reuse the session's broadcast numbers.
func (w *World) identArrive(p *Proc, a arrival) {
	id, now := p.ID, int64(w.Engine.Now())
	wire := a.snap.ident
	sessionLeft := w.sessionLeft[id]
	delete(w.sessionLeft, id)
	switch {
	case a.recovering:
	case w.stack(p.epoch).Durable && !sessionLeft:
		w.forgetDeparted(id)
		raw, _ := w.store.Load(id)
		snap, _ := raw.(durableSnapshot)
		if wire = snap.ident; wire != nil {
			w.identStats.Restores++
			w.Trace.Mark(now, id, MarkIdentRestore)
		}
	case a.rejoin:
		// The identity is present again, so the departed-record cap must
		// not evict (retire) the ledger its new session now uses. A record
		// an earlier durable leave stored is stale from now on: the new
		// session keeps counters of its own, so a later durable rejoin
		// must not restore the older ones and reuse their numbers.
		w.DropIdentityRecord(id)
		laundered := 0
		for _, k := range w.hooks.keepers {
			laundered += k.purgeAbout(w, id)
		}
		w.identStats.SessionResets++
		if laundered > 0 {
			w.Trace.Mark(now, id, MarkIdentReset)
		}
	}
	if wire == nil {
		return
	}
	rec, err := DecodeIdentity(wire)
	if err != nil {
		// The store only ever holds records this process encoded; a decode
		// failure is a bug, not an input condition.
		panic(err.Error())
	}
	for _, k := range w.hooks.keepers {
		k.restoreIdentity(w, id, rec)
	}
}

// identDepart is identity continuity's departure hook; the departing
// entity's durability is that of ITS current epoch. A session-keyed leave
// drops the session's own state for good (peers' state about it is wiped
// at rejoin time: an identity that never returns harms nobody). A crash
// or durable leave persists the identity record, into the crash snapshot
// or the stable store, and drops the in-memory copies.
func (w *World) identDepart(p *Proc, crash *durableSnapshot) {
	id := p.ID
	if crash == nil && !w.stack(p.epoch).Durable {
		for _, k := range w.hooks.keepers {
			k.dropIdentity(id)
			k.retire(id)
		}
		if w.reconfig != nil { // only a reconfiguration can make a later arrival durable
			lazySet(&w.sessionLeft, id, true)
		}
		return
	}
	rec := w.identityRecord(id)
	for _, k := range w.hooks.keepers {
		k.dropIdentity(id)
	}
	if rec.Empty() {
		return
	}
	if crash != nil {
		crash.ident = EncodeIdentity(rec)
		return
	}
	w.store.Save(id, durableSnapshot{ident: EncodeIdentity(rec)})
	w.identStats.Saves++
	w.retainDeparted(id, len(rec.Quarantined) > 0)
}

// identityRecord gathers an entity's current identity state from the
// sublayers (zero value when auth is off).
func (w *World) identityRecord(id graph.NodeID) IdentityRecord {
	var rec IdentityRecord
	for _, k := range w.hooks.keepers {
		k.snapshotIdentity(id, &rec)
	}
	return rec
}

// DropIdentityRecord deletes the identity record persisted for a departed
// entity, keeping any behavior snapshot stored alongside it. This is the
// adversary's laundering move against durable identities — "lose" the key
// material and counters, rejoin clean — and fault rejoin clauses with
// reset=1 call it. It only sheds the entity's OWN state: peers keep their
// windows and verdicts, so the reset rejoiner restarts its counters inside
// memory that still expects the old ones.
func (w *World) DropIdentityRecord(id graph.NodeID) {
	w.forgetDeparted(id)
	raw, ok := w.store.Load(id)
	if !ok {
		return
	}
	if snap, wrapped := raw.(durableSnapshot); wrapped {
		if snap.hasBehavior {
			snap.ident = nil
			w.store.Save(id, snap)
			return
		}
		w.store.Delete(id)
	}
}

// retainDeparted tracks a persisted departed identity under departedCap.
// convicting marks a record whose departing holder had quarantined
// someone: such witness records are pinned and the cap evicts the oldest
// UNPINNED record instead — a sybil join/leave flood then only cycles its
// own empty-handed records out, and the witness's verdicts survive to its
// rejoin. Only when every retained record is pinned does the cap fall
// back to the oldest outright (the cap is exact, never exceeded).
func (w *World) retainDeparted(id graph.NodeID, convicting bool) {
	if convicting && !w.departedPinned[id] {
		lazySet(&w.departedPinned, id, true)
		w.identStats.RecordsPinned++
	}
	if w.departedSet[id] {
		return
	}
	lazySet(&w.departedSet, id, true)
	w.departed = append(w.departed, id)
	for len(w.departed) > departedCap {
		idx := max(0, slices.IndexFunc(w.departed, func(d graph.NodeID) bool { return !w.departedPinned[d] }))
		old := w.departed[idx]
		w.departed = append(w.departed[:idx], w.departed[idx+1:]...)
		delete(w.departedSet, old)
		delete(w.departedPinned, old)
		w.store.Delete(old)
		// The identity starts fresh if it ever returns, so the receipt
		// store a durable Leave kept for it goes with the record: the
		// ledgers of the departed stay within the same cap.
		for _, k := range w.hooks.keepers {
			k.retire(old)
		}
		w.identStats.RecordsEvicted++
	}
}

// forgetDeparted stops tracking an identity that returned.
func (w *World) forgetDeparted(id graph.NodeID) {
	if !w.departedSet[id] {
		return
	}
	delete(w.departedSet, id)
	delete(w.departedPinned, id)
	for i, d := range w.departed {
		if d == id {
			w.departed = append(w.departed[:i], w.departed[i+1:]...)
			break
		}
	}
}

// IdentityTotals returns the world's identity bookkeeping counters.
func (w *World) IdentityTotals() IdentityCounters { return w.identStats }
