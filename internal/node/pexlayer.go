package node

// The pex sublayer: partial-view membership as live, attackable state.
//
// Every present entity holds a bounded pex.View of signed membership
// records and trades them with one view member per cadence round, under
// the configured selection policy. The sublayer OWNS the overlay's edges:
// after every merge it reconciles its entity's links through the
// topology.LinkController so the communication graph follows the views —
// members decay out, links follow; a record arrives, a link comes up.
// This is the paper's geography dimension served by gossip instead of
// configuration, and it is exactly what makes the topology an attack
// surface: whoever controls what a view believes controls who the entity
// can talk to.
//
// The view-audit defense (pex.ViewAuditConfig) gates every merge: record
// signatures must verify (sybils and forged-freshness dead records fail),
// epochs must be fresh (genuinely-old replays are rejected strike-free),
// hops must be sane, and a peer whose exchanges carry provably-bad
// records exhausts a per-link injection budget and is quarantined through
// the EXISTING auth machinery — one quarantine path for the whole stack,
// parole included. Conviction by the audit sublayer (proven equivocation)
// additionally evicts everything the convict ever contributed to the
// local view.

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Pex sublayer message tags. Exchange traffic terminates in the runtime
// like acks and audit gossip: behaviors never see it.
const (
	// PexExchangeTag carries a pex.Exchange push (optionally soliciting a
	// pull reply) from an entity to its chosen partner.
	PexExchangeTag = "node.pex-exchange"
	// PexReplyTag carries the pull half of a pushpull exchange.
	PexReplyTag = "node.pex-reply"
)

// Trace marks the pex sublayer records.
const (
	// MarkPexReject is recorded at a receiver when the view-audit defense
	// rejects a provably-bad record (bad signature, impossible hop,
	// duplicate, undecodable exchange).
	MarkPexReject = "pex.reject"
	// MarkPexQuarantine is recorded at the OFFENDER when a peer's
	// injection budget runs out and the link is handed to the auth
	// machinery (or locally blacklisted when auth is off).
	MarkPexQuarantine = "pex.quarantine"
)

func isPexTag(tag string) bool {
	return tag == PexExchangeTag || tag == PexReplyTag
}

// PexCounters aggregate the sublayer's activity across the run.
type PexCounters struct {
	// Exchanges counts initiated exchange rounds that found a partner;
	// RoundsIdle counts rounds where no live, unblocked partner existed.
	Exchanges  int
	RoundsIdle int
	// Replies counts pull replies sent.
	Replies int
	// RecordsShipped counts records sent (own record included);
	// RecordsMerged counts records folded into a view.
	RecordsShipped int
	RecordsMerged  int
	// Bootstraps counts joiners introduced through bootstrap contacts;
	// Refreshes counts the periodic single-contact re-introductions that
	// keep a large overlay from partitioning into forgotten halves.
	Bootstraps int
	Refreshes  int
	// Decayed counts records aged past the hop horizon.
	Decayed int
	// RejectedSig/Stale/Hop/Dup/Bad are the view-audit rejection tallies
	// (bad = undecodable exchange wire bytes). Only signatures, hops,
	// duplicates and undecodable exchanges strike; staleness does not.
	RejectedSig   int
	RejectedStale int
	RejectedHop   int
	RejectedDup   int
	RejectedBad   int
	// RejectedBlacklisted counts records of (or exchanges from) peers the
	// receiver has already blacklisted.
	RejectedBlacklisted int
	// Strikes and ViewQuarantines are the injection-budget ledger.
	Strikes         int
	ViewQuarantines int
	// ConvictEvictions counts records evicted because their source (or
	// subject) was quarantined or convicted.
	ConvictEvictions int
	// Links and Unlinks count overlay edges the reconciler flipped.
	Links   int
	Unlinks int
}

// PexSample is one tick of the overlay metrics stream.
type PexSample struct {
	At      int64
	Present int
	// Connected reports whole-graph connectivity; OutsideMain lists the
	// present entities outside the largest component when it is not.
	Connected   bool
	OutsideMain []graph.NodeID
	// Entries is the total record count across views; SybilEntries are
	// records of identities that never joined, DeadEntries records of
	// departed ones.
	Entries      int
	SybilEntries int
	DeadEntries  int
	// MeanHop is the mean record age in hops.
	MeanHop float64
	// Clustering and MaxDegree describe the overlay graph's shape;
	// MaxInView is the largest number of views any one subject appears in
	// (the in-degree a hub-biased poisoner tries to inflate).
	Clustering float64
	MaxDegree  int
	MaxInView  int
}

// pexPeer is one entity's membership record. The view and round count
// are soft state of the running session and die with it (a rejoiner
// re-bootstraps); the injection ledger — strikes charged and peers
// blocked — is identity memory that survives both sides' churn and
// clears on auth parole, so the record outlives the session while it
// holds any.
type pexPeer struct {
	// view is the bounded partial view (nil while the entity is absent).
	view *pex.View
	// rounds counts completed cadence rounds this session, pacing the
	// periodic bootstrap refresh.
	rounds int
	// strikes is the injection budget charged to each offender.
	strikes map[graph.NodeID]int
	// blocked maps every peer blocked in EITHER direction to which side
	// blacklisted which (blockedOut, blockedIn, or both). The two ends of
	// a pair mirror each other, so one lookup answers "never link, never
	// exchange" and the key set is the exclusion list candidate sampling
	// needs.
	blocked map[graph.NodeID]uint8
	pexLists
}

// pexLists are the two work lists reconcile reads, both with duplicates
// allowed and kept only while the entity runs; released records hand them
// on to joiners through pexLayer.spare.
type pexLists struct {
	// dirty lists the peers whose edge with this entity may have stopped
	// being wanted since its last reconcile (see touch). While the entity
	// is present, every unwanted edge it has lies on the list; reconcile
	// re-examines exactly these and clears it.
	dirty []graph.NodeID
	// pending lists view members this entity may not be linked to (see
	// unlinked). While the entity is present, every unblocked view member
	// it has no edge to lies on the list; reconcile links the present ones
	// and keeps only the absent ones, to link when they return.
	pending []graph.NodeID
}

// Directions of a blocked pair, from the record holder's side.
const (
	blockedOut uint8 = 1 << iota // the holder blacklisted the peer
	blockedIn                    // the peer blacklisted the holder
)

type pexLayer struct {
	cfg pex.Config
	r   *rng.Rand
	// peers holds one record per present entity, plus the absent ones
	// that still carry injection-ledger entries. Running entities reach
	// theirs through Proc.pex.
	peers graph.Table[*pexPeer]
	// idx is the order-statistic index over live entities, maintained by
	// onJoin/onLeave; bootstrap and refresh sample candidates from it in
	// O(k log n) instead of scanning the present set.
	idx     *presentIndex
	events  []QuarantineEvent
	samples []PexSample
	// convergedAt is the first sampled tick the overlay was connected
	// (-1 until then).
	convergedAt int64
	totals      PexCounters
	// Scratch buffers reused across calls, so an exchange allocates
	// little beyond its wire bytes. Deliveries always go through the
	// engine, so none of these users is ever re-entered while its buffer
	// is live.
	excl    []graph.NodeID // candidates: the exclusion list
	shipBuf []pex.Record   // ship: the outgoing batch, before encoding
	recvBuf []pex.Record   // onMessage: the decoded incoming batch
	dropBuf []pex.Record   // round, onQuarantine: records a view let go
	// spare holds the emptied work lists of released records, for the
	// next joiners' records to reuse.
	spare []pexLists
}

func newPexLayer(cfg pex.Config, seed uint64) *pexLayer {
	return &pexLayer{
		cfg:         cfg,
		r:           rng.New(seed ^ 0x9e97c3a5f0e1d2b4),
		idx:         newPresentIndex(),
		convergedAt: -1,
	}
}

// peer returns an entity's record, creating it on first use.
func (px *pexLayer) peer(id graph.NodeID) *pexPeer {
	pp := px.find(id)
	if pp == nil {
		pp = &pexPeer{}
		px.peers.Set(id, pp)
	}
	return pp
}

// find returns an entity's record, or nil if it has none.
func (px *pexLayer) find(id graph.NodeID) *pexPeer {
	pp, _ := px.peers.Get(id)
	return pp
}

// running returns the record of an entity that is present now, or nil.
func (px *pexLayer) running(id graph.NodeID) *pexPeer {
	if pp := px.find(id); pp != nil && pp.view != nil {
		return pp
	}
	return nil
}

// viewOf returns an entity's current view (nil while it is absent).
func (px *pexLayer) viewOf(id graph.NodeID) *pex.View {
	if pp := px.find(id); pp != nil {
		return pp.view
	}
	return nil
}

// blacklisted reports whether by has blacklisted offender's records.
func (px *pexLayer) blacklisted(by, offender graph.NodeID) bool {
	pp := px.find(by)
	return pp != nil && pp.blocked[offender]&blockedOut != 0
}

// setBlocked creates or removes the directed blacklist entry (by,
// offender), at both ends of the pair. Every blacklist mutation funnels
// through onQuarantine and pardon, so these are the only callers.
func (px *pexLayer) setBlocked(by, offender graph.NodeID, on bool) {
	px.mark(by, offender, blockedOut, on)
	px.mark(offender, by, blockedIn, on)
}

// touch records that the edge {a, b} may have stopped being wanted, or
// was born unwanted: each end goes on the other's dirty list, for its
// next reconcile to re-examine. The edge is wanted while neither side has
// blocked the other and b is in a's view or a in b's, so touch is called
// wherever a view loses a member (aging, eviction, RemoveVia, a seeded
// view replacing it, a crash dropping it) and for every edge World.SetLink
// places, since those come from outside the views. A new block needs no
// mark: onQuarantine cuts the pair's edge at once, and only SetLink can
// bring it back. An absent end keeps no list: it has no edges (Leave), or
// gets all of them listed when it recovers (onJoin).
func (px *pexLayer) touch(a, b graph.NodeID) {
	if pp := px.running(a); pp != nil {
		pp.dirty = append(pp.dirty, b)
	}
	if pp := px.running(b); pp != nil {
		pp.dirty = append(pp.dirty, a)
	}
}

// unlinked records that the edge {a, b} is down while either end may
// still hold the other in its view: each end goes on the other's pending
// list, for its next reconcile to link. An unblocked view member is
// without an edge only where a view gains a subject (onMessage lists
// those itself), where an edge is cut from outside the views — the edges
// Leave removes, World.SetLink(…, false) — and where a block lifts
// (pardon). Bootstrap, refresh and PexSeedViews link every subject they
// add in the same call, and reconcile cuts only edges neither view
// wants, so none of them needs a mark.
func (px *pexLayer) unlinked(a, b graph.NodeID) {
	if pp := px.running(a); pp != nil {
		pp.pending = append(pp.pending, b)
	}
	if pp := px.running(b); pp != nil {
		pp.pending = append(pp.pending, a)
	}
}

// touchAll touches the edge between id and the subject of every record.
func (px *pexLayer) touchAll(id graph.NodeID, recs []pex.Record) {
	for _, r := range recs {
		px.touch(id, r.ID)
	}
}

func (px *pexLayer) mark(id, peer graph.NodeID, dir uint8, on bool) {
	pp := px.peer(id)
	if on {
		lazySet(&pp.blocked, peer, pp.blocked[peer]|dir)
	} else if pp.blocked[peer] &^= dir; pp.blocked[peer] == 0 {
		delete(pp.blocked, peer)
		px.release(id)
	}
}

// release deletes the record of an ABSENT entity once its injection
// ledger is empty — the record then holds nothing.
func (px *pexLayer) release(id graph.NodeID) {
	if pp := px.find(id); pp != nil && pp.view == nil && len(pp.strikes) == 0 && len(pp.blocked) == 0 {
		px.peers.Delete(id)
		if pp.dirty != nil {
			px.spare = append(px.spare, pexLists{pp.dirty[:0], pp.pending[:0]})
		}
	}
}

// pexCandidates is one sampling population: the live entities ascending,
// minus a small exclusion list (the sampler itself, peers blocked
// against it, and — for refresh — its current view members). count and
// at together replace the old materialized candidate slice: at(j)
// returns exactly the element the scan-built slice held at position j,
// computed in O(|excl| log n) through the present index instead of
// O(present) per call.
type pexCandidates struct {
	idx *presentIndex
	// excl is ascending, duplicate-free, and only holds LIVE ids —
	// both invariants are what make count and at correct.
	excl []graph.NodeID
}

// candidates assembles the population for one sampling call by self.
// Pass the view to exclude its members (refresh); nil for bootstrap. The
// result shares a buffer with the next call's.
func (px *pexLayer) candidates(self graph.NodeID, v *pex.View) pexCandidates {
	cs := pexCandidates{idx: px.idx, excl: px.excl[:0]}
	add := func(id graph.NodeID) {
		if px.idx.Contains(id) {
			cs.excl = append(cs.excl, id)
		}
	}
	add(self)
	if pp := px.find(self); pp != nil {
		for q := range pp.blocked {
			add(q)
		}
	}
	if v != nil {
		for _, e := range v.Entries() {
			add(e.Rec.ID)
		}
	}
	slices.Sort(cs.excl)
	// Dedupe: a blocked peer can also sit in the view (records merged
	// before the conviction, via third parties, survive eviction).
	out := cs.excl[:0]
	for i, id := range cs.excl {
		if i == 0 || id != cs.excl[i-1] {
			out = append(out, id)
		}
	}
	cs.excl = out
	px.excl = out
	return cs
}

// count returns the candidate population size.
func (cs pexCandidates) count() int { return cs.idx.Len() - len(cs.excl) }

// at returns the j-th (0-based, ascending) candidate: the drawn index is
// bumped past each excluded ID at or below it — excl ascending makes
// each bump final — then resolved with one order-statistic Select.
func (cs pexCandidates) at(j int) graph.NodeID {
	for _, e := range cs.excl {
		if cs.idx.Rank(e) <= j {
			j++
		}
	}
	return cs.idx.Select(j)
}

// onJoin gives a joiner its empty view and starts its exchange rounds.
// Bootstrapping happens at the first round the view is still empty (see
// round), so a population that is joined first and seeded afterwards —
// the experiment setup — never burns bootstrap introductions.
func (px *pexLayer) onJoin(w *World, p *Proc) {
	px.idx.Add(p.ID)
	p.pex = px.peer(p.ID)
	if p.pex.view == nil {
		p.pex.view = pex.NewView(px.cfg.ViewSize)
	}
	if p.pex.dirty == nil {
		if k := len(px.spare); k > 0 {
			p.pex.pexLists, px.spare = px.spare[k-1], px.spare[:k-1]
		} else {
			// One allocation for both lists; the capacity bound keeps a
			// growing dirty list off the pending half.
			k := 2 * px.cfg.ViewSize
			buf := make([]graph.NodeID, 2*k)
			p.pex.pexLists = pexLists{dirty: buf[:0:k], pending: buf[k:k]}
		}
	}
	// A recovering entity finds the edges its crash left in the overlay,
	// and an empty view that wants none of them.
	p.pex.dirty = w.Overlay.Graph().AppendNeighbors(p.pex.dirty, p.ID)
	px.start(w, p)
}

// bootstrap introduces an entity with an EMPTY view to up to
// BootstrapContacts distinct present peers, drawn uniformly through the
// present index: fresh records both ways, links up — a join handshake
// against an out-of-band bootstrap service. Because it runs from round,
// a member whose whole view decayed away also re-bootstraps instead of
// staying membership-blind forever. When the population is no larger
// than the contact budget every candidate is taken, ascending, with no
// rng draws at all.
func (px *pexLayer) bootstrap(w *World, p *Proc) {
	now := int64(w.Engine.Now())
	cs := px.candidates(p.ID, nil)
	m := cs.count()
	if m == 0 {
		return
	}
	k := px.cfg.BootstrapContacts
	var picks []graph.NodeID
	if k >= m {
		picks = make([]graph.NodeID, m)
		for j := range picks {
			picks[j] = cs.at(j)
		}
	} else {
		// k distinct uniform indexes by rejection (k is a small constant,
		// so collisions are vanishing at any interesting m), sorted so the
		// contact order is ascending like the take-all path's.
		idxs := make([]int, 0, k)
	draw:
		for len(idxs) < k {
			j := px.r.Intn(m)
			for _, prev := range idxs {
				if prev == j {
					continue draw
				}
			}
			idxs = append(idxs, j)
		}
		sort.Ints(idxs)
		picks = make([]graph.NodeID, k)
		for i, j := range idxs {
			picks[i] = cs.at(j)
		}
	}
	for _, c := range picks {
		// The view starts empty and the contacts come ascending at hop 0,
		// so this merge never evicts; a contact it rejects still gets its
		// link, which SetLink marks.
		p.pex.view.Merge(pex.Entry{Rec: pex.SignRecord(px.cfg.Audit.KeySeed, c, now)})
		if cv := px.viewOf(c); cv != nil {
			if _, ev := cv.Merge(pex.Entry{Rec: pex.SignRecord(px.cfg.Audit.KeySeed, p.ID, now)}); ev != nil {
				px.touch(c, ev.ID)
			}
		}
		if !w.Overlay.Graph().HasEdge(p.ID, c) {
			w.SetLink(p.ID, c, true)
			px.totals.Links++
		}
	}
	px.totals.Bootstraps++
}

// refresh re-contacts the bootstrap service for one present, unblocked
// peer NOT already in the view — the periodic outside introduction that
// makes overlay partitions transient. Hop-ordered eviction specializes
// views toward their own neighborhood; once two regions hold no record
// of each other anywhere, no exchange can ever cross the gap (partners
// come from views), so the repair has to come from out of band. One
// introduction per RefreshEvery rounds bounds the damage at negligible
// steady-state cost.
func (px *pexLayer) refresh(w *World, p *Proc) {
	v := p.pex.view
	now := int64(w.Engine.Now())
	cs := px.candidates(p.ID, v)
	m := cs.count()
	if m == 0 {
		return
	}
	// One draw, one order-statistic lookup: the same Intn(m) the scan
	// made, resolving to the same pick the materialized slice held.
	c := cs.at(px.r.Intn(m))
	merged, ev := v.Merge(pex.Entry{Rec: pex.SignRecord(px.cfg.Audit.KeySeed, c, now)})
	if !merged {
		return
	}
	if ev != nil {
		px.touch(p.ID, ev.ID)
	}
	px.totals.Refreshes++
	if !w.Overlay.Graph().HasEdge(p.ID, c) {
		w.SetLink(p.ID, c, true)
		px.totals.Links++
	}
}

// start schedules the entity's exchange rounds, staggered by ID so a
// synchronous population does not fire every exchange on one tick. The
// timers ride Proc.After and die with the entity.
func (px *pexLayer) start(w *World, p *Proc) {
	delay := sim.Time(1 + int64(p.ID)%int64(px.cfg.Cadence))
	var tick func()
	tick = func() {
		px.round(w, p)
		p.After(px.cfg.Cadence, tick)
	}
	p.After(delay, tick)
}

// round is one cadence step: age the view, reconcile links, pick a
// partner under the policy, ship records.
func (px *pexLayer) round(w *World, p *Proc) {
	pp := p.pex
	v := pp.view
	if v == nil {
		return
	}
	if v.Len() == 0 {
		px.bootstrap(w, p)
	}
	pp.rounds++
	if pp.rounds%px.cfg.RefreshEvery == 0 {
		px.refresh(w, p)
	}
	px.dropBuf = v.Age(px.dropBuf[:0], px.cfg.MaxHop)
	px.totals.Decayed += len(px.dropBuf)
	px.touchAll(p.ID, px.dropBuf)
	px.reconcile(w, p.ID, pp)
	partner, ok := v.SelectPartner(px.r, px.cfg.Policy, func(id graph.NodeID) bool {
		return w.Proc(id) != nil && pp.blocked[id] == 0
	})
	if !ok {
		px.totals.RoundsIdle++
		return
	}
	px.totals.Exchanges++
	px.ship(w, p, partner, PexExchangeTag, px.cfg.Policy == pex.PolicyPushPull)
}

// ship sends one exchange batch: the sender's own freshly-minted record
// plus up to Fanout-1 view records young enough to survive the transfer
// increment.
func (px *pexLayer) ship(w *World, p *Proc, to graph.NodeID, tag string, pull bool) {
	now := int64(w.Engine.Now())
	buf := append(px.shipBuf[:0], pex.SignRecord(px.cfg.Audit.KeySeed, p.ID, now))
	buf = p.pex.view.AppendRecords(buf, px.r, px.cfg.Policy, px.cfg.Fanout-1, px.cfg.MaxHop, to)
	px.shipBuf = buf
	px.totals.RecordsShipped += len(buf)
	p.Send(to, tag, pex.Exchange{Pull: pull, Wire: pex.EncodeRecords(buf)})
}

// reconcile aligns one entity's overlay edges with the views: every
// present, unblocked view member is linked; an existing edge survives
// only while it is wanted — neither side has blocked the other and SOME
// side's view still holds the other (the self-healing: a record decays
// out of both views, the link follows).
//
// Links go up in ascending ID order, then links go down in ascending ID
// order. The first pass visits only the pending list, which holds every
// unblocked view member without an edge (see unlinked), and the second
// only the dirty list, which holds every unwanted neighbour (see touch),
// so each flips exactly the edges a walk of the whole view, or of every
// neighbour, would, in the same order. Edges the first pass adds go to
// view members, so they are wanted and go up unmarked.
func (px *pexLayer) reconcile(w *World, id graph.NodeID, pp *pexPeer) {
	v := pp.view
	g := w.Overlay.Graph()
	pending := sortedSet(pp.pending)
	kept := pending[:0]
	for _, u := range pending {
		if pp.blocked[u] != 0 || g.HasEdge(id, u) || !v.Contains(u) {
			continue
		}
		if w.Proc(u) == nil {
			kept = append(kept, u) // linked when it returns
			continue
		}
		w.flipLink(id, u, true)
		px.totals.Links++
	}
	pp.pending = kept
	for _, u := range sortedSet(pp.dirty) {
		if !g.HasEdge(id, u) {
			continue
		}
		if pp.blocked[u] == 0 {
			if v.Contains(u) {
				continue
			}
			if uv := px.viewOf(u); uv != nil && uv.Contains(id) {
				continue
			}
		}
		w.flipLink(id, u, false)
		px.totals.Unlinks++
	}
	pp.dirty = pp.dirty[:0]
}

// sortedSet sorts ids in place and returns its distinct elements, a
// prefix of the same array.
func sortedSet(ids []graph.NodeID) []graph.NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// onMessage handles exchange traffic after the auth sublayer admitted it:
// decode, gate every record through the view-audit defense, merge,
// reconcile, and answer a pull.
func (px *pexLayer) onMessage(w *World, q *Proc, m Message) {
	now := int64(w.Engine.Now())
	pp := q.pex
	v := pp.view
	if v == nil {
		return
	}
	if pp.blocked[m.From]&blockedOut != 0 {
		px.totals.RejectedBlacklisted++
		return
	}
	ex, ok := m.Payload.(pex.Exchange)
	if !ok {
		px.reject(w, m.To, m.From, &px.totals.RejectedBad)
		return
	}
	recs, err := pex.AppendDecodedRecords(px.recvBuf[:0], ex.Wire)
	px.recvBuf = recs
	if err != nil {
		px.reject(w, m.To, m.From, &px.totals.RejectedBad)
		return
	}
	audit := px.cfg.Audit
	for i, rec := range recs {
		rec.Hop++ // the transfer increment: one more exchange hop traveled
		if rec.ID == m.To {
			continue // its own record echoed back; harmless, useless
		}
		if repeats(recs[:i], rec.ID) {
			// An honest buffer never repeats a subject (selection is a
			// set); a duplicate is record stuffing.
			if audit.Enabled {
				px.reject(w, m.To, m.From, &px.totals.RejectedDup)
			}
			continue
		}
		if pp.blocked[rec.ID]&blockedOut != 0 {
			// Never re-admit a subject this entity has convicted, whoever
			// forwards it (no strike: the forwarder may be honest).
			px.totals.RejectedBlacklisted++
			continue
		}
		if audit.Enabled {
			if rec.Hop > px.cfg.MaxHop {
				// Honest senders only ship records with hop < MaxHop, so
				// an over-horizon arrival is a fabricated age.
				px.reject(w, m.To, m.From, &px.totals.RejectedHop)
				continue
			}
			if !pex.VerifyRecord(audit.KeySeed, rec) {
				// Sybils and forged-freshness resurrections die here: only
				// the subject can sign (ID, Epoch).
				px.reject(w, m.To, m.From, &px.totals.RejectedSig)
				continue
			}
			if now-rec.Epoch > int64(audit.FreshFor) {
				// A genuinely-signed but stale claim: a replayed record of
				// a departed member, or just slow gossip. Reject without a
				// strike — honest peers legitimately hold old records.
				px.totals.RejectedStale++
				continue
			}
		}
		n := v.Len()
		if merged, ev := v.Merge(pex.Entry{Rec: rec, Via: m.From}); merged {
			px.totals.RecordsMerged++
			if ev != nil {
				px.touch(m.To, ev.ID)
			}
			if ev != nil || v.Len() > n {
				// A new subject, for reconcile to link just below.
				pp.pending = append(pp.pending, rec.ID)
			}
		}
	}
	px.reconcile(w, m.To, pp)
	if m.Tag == PexExchangeTag && ex.Pull && w.Proc(m.From) != nil && pp.blocked[m.From] == 0 {
		px.totals.Replies++
		px.ship(w, q, m.From, PexReplyTag, false)
	}
}

// repeats reports whether a record of id is among recs. A batch holds at
// most Fanout records, so a scan beats building a set per exchange.
func repeats(recs []pex.Record, id graph.NodeID) bool {
	for _, r := range recs {
		if r.ID == id {
			return true
		}
	}
	return false
}

// reject charges one provably-bad record to the (receiver, sender)
// injection budget; exhausting it quarantines the link through the auth
// machinery, so parole and identity continuity govern pex offenses
// exactly like wire-level ones.
func (px *pexLayer) reject(w *World, by, offender graph.NodeID, counter *int) {
	*counter++
	now := int64(w.Engine.Now())
	w.Trace.Mark(now, by, MarkPexReject)
	if !px.cfg.Audit.Enabled {
		return
	}
	px.totals.Strikes++
	pp := px.peer(by)
	lazySet(&pp.strikes, offender, pp.strikes[offender]+1)
	if pp.strikes[offender] <= px.cfg.Audit.Budget || pp.blocked[offender]&blockedOut != 0 {
		return
	}
	w.Trace.Mark(now, offender, MarkPexQuarantine)
	if w.auth != nil {
		// The auth layer's quarantine path calls back into onQuarantine,
		// which blacklists and evicts.
		w.auth.quarantine(w, by, offender)
	} else {
		px.onQuarantine(w, by, offender)
	}
}

// onQuarantine mirrors an auth-layer quarantine into the view layer:
// blacklist the pair, evict everything the offender contributed to the
// quarantining entity's view (its own record included), and cut the
// link. Both the pex injection budget and every other auth/audit
// conviction path funnel through here.
func (px *pexLayer) onQuarantine(w *World, by, offender graph.NodeID) {
	if px.blacklisted(by, offender) {
		return
	}
	px.setBlocked(by, offender, true)
	px.totals.ViewQuarantines++
	px.events = append(px.events, QuarantineEvent{At: int64(w.Engine.Now()), By: by, Offender: offender})
	if v := px.viewOf(by); v != nil {
		px.dropBuf = v.RemoveVia(px.dropBuf[:0], offender)
		px.totals.ConvictEvictions += len(px.dropBuf)
		px.touchAll(by, px.dropBuf)
	}
	if w.Overlay.Graph().HasEdge(by, offender) {
		w.SetLink(by, offender, false)
		px.totals.Unlinks++
	}
}

// pardon clears the pair's view-layer ledger when the auth sublayer
// paroles the quarantine; the next offense re-earns it under the auth
// layer's halved budget.
func (px *pexLayer) pardon(by, offender graph.NodeID) {
	if px.blacklisted(by, offender) {
		px.setBlocked(by, offender, false)
		px.unlinked(by, offender)
	}
	if pp := px.find(by); pp != nil {
		delete(pp.strikes, offender)
		px.release(by)
	}
}

// onLeave drops the departing entity's view (soft state dies with the
// session; a rejoiner re-bootstraps) and, unless the injection ledger —
// identity memory, which survives — still holds entries, the record. A
// crash leaves the entity's edges in the overlay, and the ones only its
// view wanted stop being wanted.
func (px *pexLayer) onLeave(w *World, id graph.NodeID) {
	px.idx.Remove(id)
	if pp := px.find(id); pp != nil {
		v := pp.view
		pp.view, pp.rounds = nil, 0
		pp.dirty, pp.pending = pp.dirty[:0], pp.pending[:0]
		if v != nil && w.Overlay.Graph().HasNode(id) {
			for _, e := range v.Entries() {
				px.touch(id, e.Rec.ID)
			}
		}
		px.release(id)
	}
}

// sample records one tick of overlay metrics and marks first convergence.
func (px *pexLayer) sample(w *World) {
	now := int64(w.Engine.Now())
	g := w.Overlay.Graph()
	present := g.Nodes()
	s := PexSample{At: now, Present: len(present)}
	comps := g.Components()
	s.Connected = len(comps) <= 1
	if !s.Connected {
		main := 0
		for i, c := range comps {
			if len(c) > len(comps[main]) {
				main = i
			}
		}
		for i, c := range comps {
			if i == main {
				continue
			}
			s.OutsideMain = append(s.OutsideMain, c...)
		}
		sort.Slice(s.OutsideMain, func(i, j int) bool { return s.OutsideMain[i] < s.OutsideMain[j] })
	}
	inView := make(map[graph.NodeID]int)
	hops := 0
	// Integer tallies only, so the walk order over the records is free.
	px.peers.Each(func(_ graph.NodeID, pp *pexPeer) {
		if pp.view == nil {
			return
		}
		for _, e := range pp.view.Entries() {
			s.Entries++
			hops += e.Rec.Hop
			inView[e.Rec.ID]++
			if !w.seen[e.Rec.ID] {
				s.SybilEntries++
			} else if w.Proc(e.Rec.ID) == nil {
				s.DeadEntries++
			}
		}
	})
	if s.Entries > 0 {
		s.MeanHop = float64(hops) / float64(s.Entries)
	}
	for _, n := range inView {
		if n > s.MaxInView {
			s.MaxInView = n
		}
	}
	s.Clustering = g.AvgClustering()
	s.MaxDegree = g.MaxDegree()
	if s.Connected && len(present) > 1 && px.convergedAt < 0 {
		px.convergedAt = now
		w.Trace.Mark(now, present[0], core.MarkPexConverged)
	}
	px.samples = append(px.samples, s)
}

// PexSeedViews seeds the present population's views (and links) from a
// bootstrap graph — typically an internal/topology builder like
// BuildRing(n). Each present node's view starts as fresh signed records
// of its graph neighbors; absent nodes in g are skipped. It panics
// without the pex sublayer.
func (w *World) PexSeedViews(g *graph.Graph) {
	if w.pex == nil {
		panic("node: PexSeedViews needs the pex sublayer (Config.Pex.Enabled)")
	}
	now := int64(w.Engine.Now())
	for _, id := range g.Nodes() {
		if w.Proc(id) == nil {
			continue
		}
		v := pex.NewView(w.pex.cfg.ViewSize)
		for _, u := range g.Neighbors(id) {
			if w.Proc(u) == nil {
				continue
			}
			v.Merge(pex.Entry{Rec: pex.SignRecord(w.pex.cfg.Audit.KeySeed, u, now)})
		}
		pp := w.pex.peer(id)
		old := pp.view
		pp.view = v
		for _, e := range old.Entries() {
			w.pex.touch(id, e.Rec.ID)
		}
		for _, u := range g.Neighbors(id) {
			if w.Proc(u) != nil && !w.Overlay.Graph().HasEdge(id, u) {
				w.SetLink(id, u, true)
				w.pex.totals.Links++
			}
		}
	}
}

// PexView returns a copy of an entity's current view records (nil for
// absent entities or without the sublayer).
func (w *World) PexView(id graph.NodeID) []pex.Record {
	if w.pex != nil {
		if v := w.pex.viewOf(id); v != nil {
			return v.Records()
		}
	}
	return nil
}

// PexRecordOf returns the record of subject held in holder's view. The
// poison clause uses it to replay genuine records the poisoner already
// holds (the hub-bias injection).
func (w *World) PexRecordOf(holder, subject graph.NodeID) (pex.Record, bool) {
	if w.pex != nil {
		if v := w.pex.viewOf(holder); v != nil {
			for _, e := range v.Entries() {
				if e.Rec.ID == subject {
					return e.Rec, true
				}
			}
		}
	}
	return pex.Record{}, false
}

// PexTotals returns the sublayer's aggregate counters (zero without it).
func (w *World) PexTotals() PexCounters {
	if w.pex == nil {
		return PexCounters{}
	}
	return w.pex.totals
}

// PexSamples returns the sampled overlay metrics stream.
func (w *World) PexSamples() []PexSample {
	if w.pex == nil {
		return nil
	}
	return append([]PexSample(nil), w.pex.samples...)
}

// PexConvergedAt returns the first sampled tick the overlay was
// connected, or -1.
func (w *World) PexConvergedAt() int64 {
	if w.pex == nil {
		return -1
	}
	return w.pex.convergedAt
}

// PexQuarantineEvents returns the view-layer quarantines in order.
func (w *World) PexQuarantineEvents() []QuarantineEvent {
	if w.pex == nil {
		return nil
	}
	return append([]QuarantineEvent(nil), w.pex.events...)
}

// PexBlacklisted reports whether by has blacklisted offender's records.
func (w *World) PexBlacklisted(by, offender graph.NodeID) bool {
	return w.pex != nil && w.pex.blacklisted(by, offender)
}

// DepartedEntities returns every identity that has joined at some point
// and is absent now, ascending — the pool a poison clause resurrects
// dead records from.
func (w *World) DepartedEntities() []graph.NodeID {
	var out []graph.NodeID
	for id := range w.seen {
		if w.Proc(id) == nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var _ topology.LinkController = (*topology.Manual)(nil)
