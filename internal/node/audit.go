package node

// The equivocation audit sublayer: the opt-in answer to the auth
// sublayer's documented blind spot. Per-pair MACs authenticate the
// CHANNEL, so a Byzantine sender that signs its own lies equivocates
// freely — every divergent copy of its broadcast verifies at its
// receiver, and no single receiver can tell. Catching it needs exactly
// two things the MAC cannot give: a transferable signature (any receiver
// can check it, only the sender can produce it) and cross-receiver
// comparison (two receivers must discover they were told different
// things under the same broadcast number).
//
// This sublayer supplies both, locally, in the paper's
// geography/knowledge discipline — entities talk only to their
// neighbors:
//
//   - Senders stamp every logical broadcast with a broadcast sequence
//     number (bseq) and sign (bseq, payload fingerprint) with a
//     sender-held signing key. Per-neighbor copies of one broadcast share
//     the bseq; the signature travels with the copy.
//   - Receivers distill each accepted copy into a compact receipt
//     (sender, bseq, fingerprint, signature) and gossip pending receipts
//     to their neighbors on a budgeted cadence.
//   - Two validly-signed receipts with the same (sender, bseq) but
//     different fingerprints are PROOF of equivocation: only the sender
//     can sign, so it signed both, so it lied to someone. The prover
//     quarantines the sender through the auth sublayer's machinery and
//     forwards the receipt pair to its neighbors, so the proof propagates
//     transitively — every entity the pair reaches convicts independently.
//   - Framing is impossible this way: convicting an honest entity would
//     require exhibiting two of ITS signatures on divergent payloads,
//     i.e. forging a signature. (Contrast the MAC layer, where a forger
//     makes receivers quarantine the innocent claimed sender.)
//
// Deliveries are additionally HELD for a short audit window: the payload
// waits while receipts gossip, so a proof established in the meantime
// kills the lie before the behavior folds it in. Honest traffic pays the
// hold as uniform, bounded extra latency.
//
// The signing key stands in for a public-key signature: derivation from
// the sender's identity is the model's "key generation", verification
// recomputes what only the sender could have produced. Like the pair
// keys, it models the cryptography's guarantees, not its bits.
// Sender-side audit state (the signing key and broadcast counters) is
// modeled as living on the same stable storage as the key itself, so it
// survives crash–recovery; the volatile per-pair MAC counters are what
// Crash persists explicitly.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Audit sublayer message tags. Like acks, audit traffic is invisible to
// behaviors and excluded from tag-filtered protocol accounting.
const (
	// AuditReceiptTag carries a batch of receipts ([]Receipt) from a
	// receiver to a neighbor.
	AuditReceiptTag = "node.audit-receipt"
	// AuditProofTag carries a convicting receipt pair ([2]Receipt).
	AuditProofTag = "node.audit-proof"
	// AuditPullTag carries a receipt digest (PullRequest) on its bounded
	// walk away from the origin.
	AuditPullTag = "node.audit-pull"
	// AuditPullRespTag carries divergent receipts (PullResponse) hopping
	// back along the request's recorded path.
	AuditPullRespTag = "node.audit-pull-resp"
)

// Trace mark tags emitted by the audit sublayer. The conviction itself is
// recorded as core.MarkProvenEquivocator at the offender (the core
// package owns the tag so trace checkers need not import this one).
const (
	// MarkAuditHeldDrop is recorded at the receiver when a held delivery
	// is discarded because its sender was proven an equivocator (or
	// quarantined) during the audit hold window.
	MarkAuditHeldDrop = "audit.held-drop"
)

// AuditConfig parameterizes the audit sublayer. It requires the auth
// sublayer: receipts and proofs travel authenticated, and a proof
// quarantines through the auth layer's per-link machinery (so
// AuthConfig.Parole governs proof-based quarantines too).
type AuditConfig struct {
	// Enabled turns the sublayer on.
	Enabled bool
	// GossipInterval is the receipt-gossip cadence in ticks. Default 8.
	GossipInterval sim.Time
	// GossipBudget caps the receipts carried per gossip message. Pending
	// receipts beyond the budget wait for the next round. Default 8.
	GossipBudget int
	// Retain caps the receipts each entity stores per run; the oldest are
	// evicted first. Default 256.
	Retain int
	// HoldFor is the audit hold window: accepted deliveries wait this many
	// ticks before reaching the behavior, giving receipts time to gossip
	// and proofs time to land. Default 2*GossipInterval.
	HoldFor sim.Time
	// Pull enables receipt pull anti-entropy: each entity periodically
	// sends a compact digest of its held (sender, bseq, fingerprint) keys
	// on a bounded-TTL walk through rotating neighbor subsets; whoever
	// holds a receipt whose fingerprint DIVERGES from a digest entry
	// returns it along the walk's path. Push gossip alone never re-shares
	// gossiped-in receipts, so two victims in disjoint partitions of a
	// colluding equivocator's victim set stay ignorant of each other
	// forever; pull digests cover the whole store and close that gap.
	Pull bool
	// PullInterval is the pull-digest cadence in ticks. Default
	// 2*GossipInterval.
	PullInterval sim.Time
	// PullTTL bounds the walk length in hops: 1 reaches neighbors, 2
	// reaches neighbors-of-neighbors, and so on. Default 2, max 16.
	PullTTL int
	// PullBudget caps the digest entries per request; a larger store is
	// advertised incrementally by a rotating cursor. Default 64.
	PullBudget int
	// Retention selects the receipt eviction policy: RetentionPinned
	// (default) or RetentionFIFO (the original behavior, kept so the
	// bseq-cycling eviction attack stays measurable).
	Retention string
}

// Retention policies for the receipt store.
const (
	// RetentionPinned never evicts receipts pinned as known-divergent,
	// and orders the rest advertise-before-evict: a receipt whose
	// fingerprint has gone out in at least one pull digest is evictable
	// (oldest such first — its anti-entropy chance has been taken), while
	// a store holding only never-advertised receipts churns its
	// probationary newest half FIFO and leaves the oldest half waiting
	// for its digest turn. A bseq-cycling flood then mostly displaces its
	// own fresh chaff; the older contested receipt keeps its store slot
	// until a digest has advertised it, which is the window a conviction
	// needs — and with pull disabled it keeps the slot outright.
	RetentionPinned = "pinned"
	// RetentionFIFO evicts the oldest receipt first, unconditionally.
	RetentionFIFO = "fifo"
)

// The audit defaults that are also epoch-governed knobs: AuditConfig and
// StackConfig resolve their zero fields to the same values. The pull
// fanout — how many targets each hop forwards a digest to, rotating
// deterministically through the neighbor list round by round — starts
// at defaultPullFanout in every world; only a reconfiguration moves it.
const (
	defaultRetain     = 256
	defaultPullFanout = 2
	defaultRetention  = RetentionPinned
)

// maxPullTTL bounds the digest walk length.
const maxPullTTL = 16

func (ac AuditConfig) withDefaults() AuditConfig {
	if ac.GossipInterval == 0 {
		ac.GossipInterval = 8
	}
	if ac.GossipBudget == 0 {
		ac.GossipBudget = 8
	}
	if ac.Retain == 0 {
		ac.Retain = defaultRetain
	}
	if ac.HoldFor == 0 {
		ac.HoldFor = 2 * ac.GossipInterval
	}
	if ac.PullInterval == 0 {
		ac.PullInterval = 2 * ac.GossipInterval
	}
	if ac.PullTTL == 0 {
		ac.PullTTL = 2
	}
	if ac.PullBudget == 0 {
		ac.PullBudget = 64
	}
	if ac.Retention == "" {
		ac.Retention = defaultRetention
	}
	return ac
}

// Validate reports the first configuration error, or nil. Zero fields
// mean their defaults, exactly as in Config.Validate.
func (ac AuditConfig) Validate() error {
	if ac.GossipInterval < 0 {
		return fmt.Errorf("node: negative audit GossipInterval %d", ac.GossipInterval)
	}
	if ac.GossipBudget < 0 {
		return fmt.Errorf("node: negative audit GossipBudget %d", ac.GossipBudget)
	}
	if ac.Retain < 0 {
		return fmt.Errorf("node: negative audit Retain %d", ac.Retain)
	}
	if ac.HoldFor < 0 {
		return fmt.Errorf("node: negative audit HoldFor %d", ac.HoldFor)
	}
	if ac.PullInterval < 0 {
		return fmt.Errorf("node: negative audit PullInterval %d", ac.PullInterval)
	}
	if ac.PullTTL < 0 || ac.PullTTL > maxPullTTL {
		return fmt.Errorf("node: audit PullTTL %d outside [0, %d]", ac.PullTTL, maxPullTTL)
	}
	if ac.PullBudget < 0 {
		return fmt.Errorf("node: negative audit PullBudget %d", ac.PullBudget)
	}
	switch ac.Retention {
	case "", RetentionPinned, RetentionFIFO:
	default:
		return fmt.Errorf("node: unknown audit Retention %q", ac.Retention)
	}
	return nil
}

// Receipt is the compact evidence one receiver distills from one accepted
// copy: who broadcast, under which broadcast number, what the payload
// hashed to, and the sender's transferable signature over exactly that.
// Receipts are what gossips between neighbors; a pair with equal
// (Sender, BSeq) and unequal FP is a self-signed contradiction.
type Receipt struct {
	Sender graph.NodeID
	BSeq   uint64
	FP     uint64
	Sig    uint64
}

// receiptWire is the canonical 32-byte encoding of a receipt.
const receiptWire = 32

// EncodeReceipt renders a receipt in its canonical 32-byte wire form.
func EncodeReceipt(r Receipt) []byte {
	out := make([]byte, receiptWire)
	binary.LittleEndian.PutUint64(out[0:], uint64(r.Sender))
	binary.LittleEndian.PutUint64(out[8:], r.BSeq)
	binary.LittleEndian.PutUint64(out[16:], r.FP)
	binary.LittleEndian.PutUint64(out[24:], r.Sig)
	return out
}

// DecodeReceipt parses the canonical wire form. A 32-byte input whose
// sender lies in [0, graph.MaxNodeID] is a structurally valid receipt
// (validity of the SIGNATURE is a separate, keyed question — see
// VerifyReceipt).
func DecodeReceipt(b []byte) (Receipt, error) {
	if len(b) != receiptWire {
		return Receipt{}, fmt.Errorf("node: receipt wire form is %d bytes, got %d", receiptWire, len(b))
	}
	sender, err := graph.WireID(binary.LittleEndian.Uint64(b[0:]))
	if err != nil {
		return Receipt{}, fmt.Errorf("node: receipt sender: %w", err)
	}
	return Receipt{
		Sender: sender,
		BSeq:   binary.LittleEndian.Uint64(b[8:]),
		FP:     binary.LittleEndian.Uint64(b[16:]),
		Sig:    binary.LittleEndian.Uint64(b[24:]),
	}, nil
}

// DigestEntry is one line of a pull digest: "I hold a receipt binding
// this sender's broadcast number to this fingerprint." A responder that
// holds the same (Sender, BSeq) under a DIFFERENT fingerprint has, with
// the entry's origin, the two halves of a conviction.
type DigestEntry struct {
	Sender graph.NodeID
	BSeq   uint64
	FP     uint64
}

// PullRequest is a receipt digest on a bounded walk. Path records the
// hops taken (Path[0] == Origin), both to route responses back and to
// keep the walk loop-free; TTL is the remaining forward budget.
type PullRequest struct {
	Origin graph.NodeID
	TTL    int
	Path   []graph.NodeID
	Digest []DigestEntry
}

// PullResponse carries receipts that diverged from a digest, unwinding
// hop by hop along the request's recorded path. Every entity on the way
// back verifies and records them — and convicts — independently.
type PullResponse struct {
	Path     []graph.NodeID
	Receipts []Receipt
}

// Fingerprint implements Fingerprinter.
func (m PullRequest) Fingerprint() uint64 {
	h := foldIDs(fold(fold(fpPullRequest, uint64(m.Origin)), uint64(m.TTL)), m.Path)
	h = fold(h, uint64(len(m.Digest)))
	for _, e := range m.Digest {
		h = fold(fold(fold(h, uint64(e.Sender)), e.BSeq), e.FP)
	}
	return h
}

// Fingerprint implements Fingerprinter.
func (m PullResponse) Fingerprint() uint64 {
	return foldReceipts(foldIDs(fpPullResp, m.Path), m.Receipts)
}

// sigKey derives a sender's signing key from its identity — the model's
// key-generation ceremony.
func sigKey(sender graph.NodeID) uint64 {
	return rng.New(uint64(sender) * 0xa24baed4963ee407).Uint64()
}

// sigOver computes the transferable signature of (sender, bseq, fp).
func sigOver(sender graph.NodeID, bseq, fp uint64) uint64 {
	return rng.Mix64(sigKey(sender) ^ bseq*0x9fb21c651e98df25 ^ fp*0xd1b54a32d192ed03)
}

// VerifyReceipt checks a receipt's signature against the sender's derived
// key. In the model, passing verification means "only Sender could have
// produced Sig over (BSeq, FP)".
func VerifyReceipt(r Receipt) bool {
	return r.Sig == sigOver(r.Sender, r.BSeq, r.FP)
}

// SignReceipt produces the honestly signed receipt for one statement —
// what a sender's channel sublayer stamps on every outgoing copy. It is
// exported for tests and fuzzers that need valid evidence to perturb.
func SignReceipt(sender graph.NodeID, bseq, fp uint64) Receipt {
	return Receipt{Sender: sender, BSeq: bseq, FP: fp, Sig: sigOver(sender, bseq, fp)}
}

// AuditCounters are the audit sublayer's statistics, summed over every
// entity of the run.
type AuditCounters struct {
	// ReceiptsSent counts receipt-gossip messages this entity sent.
	ReceiptsSent int
	// ReceiptsCarried counts individual receipts inside those messages.
	ReceiptsCarried int
	// ProofsForwarded counts proof-pair messages this entity sent.
	ProofsForwarded int
	// ProofsHeld counts distinct offenders this entity holds proof against.
	ProofsHeld int
	// BadSig counts receipts or stamped copies whose signature failed.
	BadSig int
	// HeldDropped counts held deliveries discarded because the sender was
	// proven (or quarantined) during the hold window.
	HeldDropped int
	// PullsSent counts pull requests this entity originated.
	PullsSent int
	// PullsRelayed counts pull requests this entity forwarded onward.
	PullsRelayed int
	// PullReplies counts pull responses this entity answered with.
	PullReplies int
	// Pinned counts receipts this entity pinned as known-divergent.
	Pinned int
	// Evicted counts receipts this entity evicted under the Retain cap.
	Evicted int
}

// AuditSummary is the run-level view of the audit sublayer's evidence: the
// world-held ground truth of delivered divergence versus what the gossip
// actually proved.
type AuditSummary struct {
	// EquivocatedBroadcasts counts (sender, bseq) pairs for which
	// DIVERGENT copies were actually delivered somewhere — the ground
	// truth the proven fraction is measured against. (Lies the channel
	// dropped before delivery harmed nobody and are unprovable.)
	EquivocatedBroadcasts int
	// ProvenBroadcasts counts equivocated (sender, bseq) pairs some
	// entity established proof for.
	ProvenBroadcasts int
	// ProvenOffenders lists the senders proven equivocators by at least
	// one entity, ascending.
	ProvenOffenders []graph.NodeID
	// Holders maps each proven offender to the number of entities that
	// ever held proof against it (the proof-propagation count; parole
	// does not shrink it).
	Holders map[graph.NodeID]int
}

// bcastKey identifies one logical broadcast of a sender: the same (tag,
// honest payload) gets the same bseq toward every neighbor.
type bcastKey struct {
	tag string
	fp  uint64
}

// rkey identifies the subject of a receipt.
type rkey struct {
	sender graph.NodeID
	bseq   uint64
}

// observer is one entity's whole audit ledger. A session-keyed departure
// deletes it; a durable-identity departure and a crash keep the receiver
// side across the absence (the store rides the identity) and reset only
// the sender side, whose counter travels in the identity record.
type observer struct {
	// bseqNext and bseqOf are the sender side: the broadcast counter and
	// the bseq memo per (tag, honest fingerprint). The counter lives with
	// the signing key on stable storage: Crash (and a durable-identity
	// Leave) persists it in the identity record and restores it, while a
	// session-keyed departure loses it — the next session numbers from 1
	// as a fresh principal.
	bseqNext uint64
	bseqOf   map[bcastKey]uint64
	// receipts, order and pending are the receiver side: the retained
	// receipt per (sender, bseq), the retention order, and the
	// own-observed receipts not yet gossiped.
	receipts map[rkey]Receipt
	order    []rkey
	pending  []Receipt
	// pinned and pinOrder are the retention policy's evidence pins: keys
	// with a known-divergent fingerprint that eviction must not touch,
	// bounded to Retain/2 FIFO.
	pinned   map[rkey]bool
	pinOrder []rkey
	// advertised marks the held keys whose fingerprint has appeared in at
	// least one outgoing pull digest — the pinned policy's
	// advertise-before-evict ordering reads it. Entries are cleared on
	// eviction, so the map is bounded by the store.
	advertised map[rkey]bool
	// pullRound and pullCursor drive the pull anti-entropy rotation: which
	// neighbor subset the next request targets and where in the retention
	// order the next digest starts.
	pullRound  uint64
	pullCursor int
	// proven holds the standing conviction per offender, as the receipt
	// pair behind it.
	proven map[graph.NodeID][2]Receipt
}

// forget drops everything the observer stores about one sender — held
// and pending receipts, advertisement marks, pins — keeping the retention
// and pin orders of the rest.
func (o *observer) forget(sender graph.NodeID) {
	order := o.order[:0]
	for _, k := range o.order {
		if k.sender == sender {
			delete(o.receipts, k)
			delete(o.advertised, k)
		} else {
			order = append(order, k)
		}
	}
	o.order = order
	pending := o.pending[:0]
	for _, r := range o.pending {
		if r.Sender != sender {
			pending = append(pending, r)
		}
	}
	o.pending = pending
	pins := o.pinOrder[:0]
	for _, k := range o.pinOrder {
		if k.sender == sender {
			delete(o.pinned, k)
		} else {
			pins = append(pins, k)
		}
	}
	o.pinOrder = pins
}

type auditLayer struct {
	cfg AuditConfig
	// observers holds one ledger per entity with audit state in memory.
	// Running entities reach theirs through Proc.audit.
	observers map[graph.NodeID]*observer
	// everProven marks every (observer, offender) conviction ever reached.
	// It is world-level accounting, not observer state: it survives parole
	// and the observer's departure, for the propagation count.
	everProven map[[2]graph.NodeID]bool
	// truthFP tracks, per broadcast, every fingerprint DELIVERED anywhere
	// — the world-held ground truth. provenB marks broadcasts proven.
	// truthSingle bounds the single-fingerprint entries: honest
	// broadcasts cycle out FIFO past 8*Retain, while divergent (and
	// proven) entries stay — they are the run's ground truth, bounded by
	// the equivocations actually delivered.
	truthFP     map[rkey]map[uint64]bool
	truthSingle []rkey
	provenB     map[rkey]bool
	totals      AuditCounters
}

func newAuditLayer(cfg AuditConfig) *auditLayer {
	return &auditLayer{
		cfg:        cfg,
		observers:  make(map[graph.NodeID]*observer),
		everProven: make(map[[2]graph.NodeID]bool),
		truthFP:    make(map[rkey]map[uint64]bool),
		provenB:    make(map[rkey]bool),
	}
}

// observer returns an entity's ledger, creating it on first use.
func (au *auditLayer) observer(id graph.NodeID) *observer {
	o := au.observers[id]
	if o == nil {
		// pinned, advertised and proven wait for their first entry: most
		// observers never meet a divergence.
		o = &observer{bseqOf: make(map[bcastKey]uint64), receipts: make(map[rkey]Receipt)}
		au.observers[id] = o
	}
	return o
}

// stamps reports whether outgoing messages with this tag get a broadcast
// number and signature. The sublayer's own traffic does not: receipts
// about receipts would regress forever. Reconfiguration handshake
// traffic is likewise unstamped — receipts about the machinery that
// changes receipt retention would chase their own tail, and the
// handshake's integrity rests on the MAC plus the prepare's canonical
// encoding check instead.
// Pex exchange traffic is also unstamped: its records carry their own
// per-subject signatures, judged by the view-audit defense.
func (au *auditLayer) stamps(tag string) bool {
	return !isAuditTag(tag) && !isReconfigTag(tag) && !isPexTag(tag)
}

func isAuditTag(tag string) bool {
	return tag == AuditReceiptTag || tag == AuditProofTag || tag == AuditPullTag || tag == AuditPullRespTag
}

// bseqFor assigns (or recalls) the broadcast sequence number of one
// logical broadcast of p: per-neighbor copies of the same honest (tag,
// payload) share it. Called BEFORE the sender hook can replace the
// payload — the number binds to what the sender was supposed to say.
func (au *auditLayer) bseqFor(p *Proc, tag string, payload any) uint64 {
	o := p.audit
	key := bcastKey{tag: tag, fp: fingerprint(payload)}
	if b, ok := o.bseqOf[key]; ok {
		return b
	}
	o.bseqNext++
	o.bseqOf[key] = o.bseqNext
	return o.bseqNext
}

// sign computes the sender's transferable signature over the FINAL
// payload of one copy. An equivocator signs its lies — each copy
// verifies individually, and precisely that makes the divergent pair
// self-convicting.
func (au *auditLayer) sign(from graph.NodeID, bseq uint64, payload any) uint64 {
	return sigOver(from, bseq, fingerprint(payload))
}

// observe distills an accepted protocol delivery into a receipt at the
// receiver q, feeding both the gossip queue and the world-held ground
// truth.
func (au *auditLayer) observe(w *World, q *Proc, m Message) {
	fp := fingerprint(m.Payload)
	r := Receipt{Sender: m.From, BSeq: m.bseq, FP: fp, Sig: m.sig}
	if !VerifyReceipt(r) {
		au.totals.BadSig++
		return
	}
	k := rkey{sender: m.From, bseq: m.bseq}
	fps := au.truthFP[k]
	if fps == nil {
		fps = make(map[uint64]bool)
		au.truthFP[k] = fps
		au.truthSingle = append(au.truthSingle, k)
		au.pruneTruth()
	}
	fps[fp] = true
	au.record(w, q, r, true)
}

// pruneTruth bounds the ground-truth map: entries still holding a single
// fingerprint (honest broadcasts) cycle out FIFO past 8*Retain. Entries
// that turned divergent or proven simply leave the FIFO and stay in the
// map — they grow only with equivocations actually delivered.
func (au *auditLayer) pruneTruth() {
	limit := 8 * au.cfg.Retain
	for len(au.truthSingle) > limit {
		k := au.truthSingle[0]
		au.truthSingle = au.truthSingle[1:]
		if fps := au.truthFP[k]; fps != nil && len(fps) < 2 && !au.provenB[k] {
			delete(au.truthFP, k)
		}
	}
}

// record stores one verified receipt at the observer p. A conflicting
// receipt already on file for the same (sender, bseq) triggers the
// conviction; own observations (not gossiped-in ones) additionally queue
// for the next gossip round.
func (au *auditLayer) record(w *World, p *Proc, r Receipt, own bool) {
	o := p.audit
	k := rkey{sender: r.Sender, bseq: r.BSeq}
	if prev, ok := o.receipts[k]; ok {
		if prev.FP != r.FP {
			au.pin(o, k)
			au.prove(w, p, r.Sender, prev, r)
		}
		return
	}
	o.receipts[k] = r
	o.order = append(o.order, k)
	au.enforceRetain(w, p)
	if own {
		o.pending = append(o.pending, r)
		if au.cfg.GossipInterval <= 0 && p.alive {
			// No gossip loop is running to drain pending — flush inline so
			// the queue cannot grow without bound.
			au.flush(p)
		}
	}
}

// pin marks a held receipt as evidence the retention policy must keep: a
// fingerprint for its (sender, bseq) is known to diverge somewhere. Pins
// are themselves bounded to half the store, oldest unpinned first, so a
// flood of divergence cannot freeze retention solid.
func (au *auditLayer) pin(o *observer, k rkey) {
	if _, held := o.receipts[k]; !held || o.pinned[k] {
		return
	}
	limit := au.cfg.Retain / 2
	if limit < 1 {
		limit = 1
	}
	for len(o.pinOrder) >= limit {
		delete(o.pinned, o.pinOrder[0])
		o.pinOrder = o.pinOrder[1:]
	}
	lazySet(&o.pinned, k, true)
	o.pinOrder = append(o.pinOrder, k)
	au.totals.Pinned++
}

// enforceRetain holds p's store to the exact Retain cap. Both the cap and
// the eviction policy are those of the observer's CURRENT epoch — an
// epoch switch that tightens Retain calls this to shrink the store
// immediately, under the new policy.
func (au *auditLayer) enforceRetain(w *World, p *Proc) {
	st := w.stack(p.epoch)
	for len(p.audit.order) > st.Retain {
		au.evictOne(p.audit, st.Retention)
	}
}

// evictOne removes one receipt under the given retention policy.
// FIFO takes the oldest unconditionally. The pinned policy never touches
// pinned (known-divergent) receipts and orders the rest
// advertise-before-evict: the oldest receipt already covered by an
// outgoing pull digest goes first — its anti-entropy chance has been
// taken, and if anyone held a divergent fingerprint the response would
// have pinned it by now. When nothing unpinned has been advertised, the
// probationary newest half churns FIFO among itself and the oldest half
// is left waiting for its digest turn. The store falls back to the
// oldest unpinned outright, and to the oldest of all only when
// everything is pinned.
func (au *auditLayer) evictOne(o *observer, retention string) {
	ord := o.order
	if len(ord) == 0 {
		return
	}
	idx := 0
	if retention != RetentionFIFO {
		idx = -1
		for i := range ord {
			if o.advertised[ord[i]] && !o.pinned[ord[i]] {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Nothing advertised: churn the probationary newest half FIFO
			// among itself and leave the oldest half alone until a digest
			// has covered it. A bseq-cycling flood then only displaces its
			// own chaff; with pull disabled entirely the oldest half is
			// simply immortal, which is what the push-path eviction attack
			// needs defeated.
			for i := len(ord) / 2; i < len(ord); i++ {
				if !o.pinned[ord[i]] {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			for i := range ord {
				if !o.pinned[ord[i]] {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			idx = 0
		}
	}
	evict := ord[idx]
	o.order = append(ord[:idx], ord[idx+1:]...)
	delete(o.receipts, evict)
	delete(o.advertised, evict)
	if o.pinned[evict] {
		delete(o.pinned, evict)
		for i, k := range o.pinOrder {
			if k == evict {
				o.pinOrder = append(o.pinOrder[:i], o.pinOrder[i+1:]...)
				break
			}
		}
	}
	au.totals.Evicted++
}

// prove convicts: p now holds two of offender's signatures on divergent
// payloads under one broadcast number. The link quarantines through the
// auth sublayer (parole applies there uniformly), the conviction is
// marked at the offender for trace checkers, and the receipt pair is
// forwarded so every neighbor can convict independently — transitive
// propagation with no trust in the forwarder.
func (au *auditLayer) prove(w *World, p *Proc, offender graph.NodeID, a, b Receipt) {
	by := p.ID
	if by == offender {
		// The evidence reached the offender itself (gossip is undirected);
		// an entity neither convicts nor quarantines its own link.
		return
	}
	// The BROADCAST is proven regardless of whether this observer already
	// convicted the sender over earlier evidence.
	au.provenB[rkey{sender: a.Sender, bseq: a.BSeq}] = true
	if _, standing := p.audit.proven[offender]; standing {
		return
	}
	proof := [2]Receipt{a, b}
	lazySet(&p.audit.proven, offender, proof)
	if pair := [2]graph.NodeID{by, offender}; !au.everProven[pair] {
		au.everProven[pair] = true
		au.totals.ProofsHeld++
	}
	now := int64(w.Engine.Now())
	w.Trace.Mark(now, offender, core.MarkProvenEquivocator)
	w.auth.quarantine(w, by, offender)
	if !p.alive {
		return
	}
	au.totals.ProofsForwarded += p.sendAllBut(offender, AuditProofTag, proof)
}

// digest assembles up to PullBudget digest entries from the store,
// starting at a rotating cursor so a store larger than the budget is
// advertised incrementally across rounds.
func (au *auditLayer) digest(o *observer) []DigestEntry {
	n := len(o.order)
	if n == 0 {
		return nil
	}
	budget := au.cfg.PullBudget
	if budget > n {
		budget = n
	}
	out := make([]DigestEntry, 0, budget)
	start := o.pullCursor % n
	for i := 0; i < n && len(out) < budget; i++ {
		k := o.order[(start+i)%n]
		r, ok := o.receipts[k]
		if !ok {
			continue
		}
		lazySet(&o.advertised, k, true)
		out = append(out, DigestEntry{Sender: k.sender, BSeq: k.bseq, FP: r.FP})
	}
	o.pullCursor = (start + len(out)) % n
	return out
}

// pullTo sends req, boxed once, to this round's PullFanout targets,
// picked by rotating through the (sorted, hence deterministic) neighbor
// list minus the ids on path, and returns how many it sent.
func (au *auditLayer) pullTo(p *Proc, round uint64, path []graph.NodeID, req any) int {
	w := p.world
	nbrs := w.borrowNeighbors(p)
	cand := nbrs[:0]
	for _, u := range nbrs {
		if !containsID(path, u) {
			cand = append(cand, u)
		}
	}
	f := 0
	if len(cand) > 0 {
		fanout := w.stack(p.epoch).PullFanout
		f = min(fanout, len(cand))
		start := int(round*uint64(fanout)) % len(cand)
		for i := 0; i < f; i++ {
			p.Send(cand[(start+i)%len(cand)], AuditPullTag, req)
		}
	}
	w.returnNeighbors(nbrs)
	return f
}

// pullTick originates one pull round: digest the store and send it to
// this round's targets with the full TTL budget.
func (au *auditLayer) pullTick(p *Proc) {
	if d := au.digest(p.audit); len(d) > 0 {
		round := p.audit.pullRound
		p.audit.pullRound++
		req := PullRequest{
			Origin: p.ID,
			TTL:    au.cfg.PullTTL - 1,
			Path:   []graph.NodeID{p.ID},
			Digest: d,
		}
		au.totals.PullsSent += au.pullTo(p, round, req.Path, req)
	}
}

// onPull answers a digest at p and forwards it while TTL remains. Any
// held receipt whose fingerprint diverges from a digest entry goes back
// toward the origin along the recorded path — and is pinned locally,
// since it is now known to be one half of a conviction. Malformed
// requests (broken path, over-budget digest, loops) are dropped; a lying
// relay can at worst waste its own neighborhood's messages, never frame
// anyone, because convictions still re-verify both signatures.
func (au *auditLayer) onPull(p *Proc, m Message, req PullRequest) {
	at, o := p.ID, p.audit
	if len(req.Path) == 0 || req.Path[0] != req.Origin ||
		req.Path[len(req.Path)-1] != m.From || containsID(req.Path, at) ||
		req.TTL < 0 || req.TTL > maxPullTTL || len(req.Digest) > au.cfg.PullBudget {
		au.totals.BadSig++
		return
	}
	var div []Receipt
	for _, e := range req.Digest {
		k := rkey{sender: e.Sender, bseq: e.BSeq}
		if r, held := o.receipts[k]; held && r.FP != e.FP {
			au.pin(o, k)
			div = append(div, r)
		}
	}
	if !p.alive {
		return
	}
	if len(div) > 0 {
		p.Send(m.From, AuditPullRespTag, PullResponse{Path: req.Path, Receipts: div})
		au.totals.PullReplies++
	}
	if req.TTL > 0 {
		fwd := PullRequest{
			Origin: req.Origin,
			TTL:    req.TTL - 1,
			Path:   append(append([]graph.NodeID{}, req.Path...), at),
			Digest: req.Digest,
		}
		au.totals.PullsRelayed += au.pullTo(p, o.pullRound, fwd.Path, fwd)
	}
}

// onPullResp records a response's receipts at p (convicting on conflict
// with the local store, exactly as for pushed gossip) and unwinds it one
// hop closer to the origin.
func (au *auditLayer) onPullResp(w *World, p *Proc, resp PullResponse) {
	if len(resp.Path) == 0 || resp.Path[len(resp.Path)-1] != p.ID {
		au.totals.BadSig++
		return
	}
	au.recordAll(w, p, resp.Receipts)
	rest := resp.Path[:len(resp.Path)-1]
	if len(rest) == 0 || !p.alive {
		return
	}
	p.Send(rest[len(rest)-1], AuditPullRespTag, PullResponse{Path: rest, Receipts: resp.Receipts})
}

// recordAll merges gossiped-in receipts into p's store, skipping (and
// counting) any whose signature does not verify.
func (au *auditLayer) recordAll(w *World, p *Proc, rs []Receipt) {
	for _, r := range rs {
		if !VerifyReceipt(r) {
			au.totals.BadSig++
			continue
		}
		au.record(w, p, r, false)
	}
}

func containsID(ids []graph.NodeID, id graph.NodeID) bool {
	for _, u := range ids {
		if u == id {
			return true
		}
	}
	return false
}

// onAudit handles the sublayer's own traffic at the receiver p: receipt
// batches merge into the local store (convicting on conflict), proof
// pairs are re-verified from scratch — the pair convicts by its
// signatures alone, so a lying forwarder can frame nobody — and pull
// requests/responses run the anti-entropy walk.
func (au *auditLayer) onAudit(w *World, p *Proc, m Message) {
	switch pl := m.Payload.(type) {
	case PullRequest:
		au.onPull(p, m, pl)
	case PullResponse:
		au.onPullResp(w, p, pl)
	case []Receipt:
		au.recordAll(w, p, pl)
	case [2]Receipt:
		a, b := pl[0], pl[1]
		if a.Sender != b.Sender || a.BSeq != b.BSeq || a.FP == b.FP ||
			!VerifyReceipt(a) || !VerifyReceipt(b) {
			au.totals.BadSig++
			return
		}
		au.prove(w, p, a.Sender, a, b)
	}
}

func (au *auditLayer) terminate(w *World, q *Proc, m Message) bool {
	return !isAuditTag(m.Tag) || w.terminate(q, m, au.onAudit)
}

// hold is the audit.hold stage: it records a stamped copy's receipt at
// arrival, then holds the delivery for the audit window while receipts
// gossip. Honest traffic pays the hold as uniform extra latency.
func (au *auditLayer) hold(w *World, q *Proc, m Message) bool {
	if m.bseq != 0 {
		au.observe(w, q, m)
	}
	if au.cfg.HoldFor <= 0 {
		return true
	}
	w.schedule(au.cfg.HoldFor, m, &heldRelease)
	return false
}

var heldRelease = []stage{{name: "audit.release", run: releaseHeld}}

// releaseHeld drops a held copy whose sender has been proven (or
// otherwise quarantined) at this receiver in the meantime: the proof beat
// the poison.
func releaseHeld(w *World, q *Proc, m Message) bool {
	if _, proven := q.audit.proven[m.From]; !proven && !q.auth.quarantined(m.From) {
		return true
	}
	now := int64(w.Engine.Now())
	w.audit.totals.HeldDropped++
	w.Trace.Mark(now, m.To, MarkAuditHeldDrop)
	w.Trace.Drop(now, m.From, m.To, m.Tag)
	return false
}

// start schedules an entity's receipt-gossip and pull loops, offset by
// identity so rounds desynchronize, each re-arming one closure per entity.
// The timers die with the entity (Proc.After).
func (au *auditLayer) start(p *Proc) {
	if au.cfg.GossipInterval > 0 {
		var gossip func()
		gossip = func() {
			au.flush(p)
			p.After(au.cfg.GossipInterval, gossip)
		}
		p.After(1+sim.Time(uint64(p.ID)%uint64(au.cfg.GossipInterval)), gossip)
	}
	if au.cfg.Pull && au.cfg.PullInterval > 0 && au.cfg.PullTTL > 0 {
		var pull func()
		pull = func() {
			au.pullTick(p)
			p.After(au.cfg.PullInterval, pull)
		}
		p.After(1+sim.Time((uint64(p.ID)*7)%uint64(au.cfg.PullInterval)), pull)
	}
}

// flush gossips up to GossipBudget pending receipts to every neighbor;
// the rest wait for the next round.
func (au *auditLayer) flush(p *Proc) {
	q := p.audit.pending
	if len(q) == 0 {
		return
	}
	n := au.cfg.GossipBudget
	if n > len(q) {
		n = len(q)
	}
	batch := make([]Receipt, n)
	copy(batch, q[:n])
	p.audit.pending = q[n:]
	sent := p.sendAllBut(p.ID, AuditReceiptTag, batch)
	au.totals.ReceiptsSent += sent
	au.totals.ReceiptsCarried += sent * n
}

func (au *auditLayer) snapshotIdentity(id graph.NodeID, rec *IdentityRecord) {
	if o := au.observers[id]; o != nil {
		rec.BSeqNext = o.bseqNext
	}
}

// dropIdentity forgets an entity's sender-side audit state: the broadcast
// counter and the bseq memo of its logical broadcasts. A session-keyed
// departure loses them with the whole ledger (the next session numbers
// from 1 in a world that also forgot the old receipts); a durable-identity
// departure or crash persists the counter in the identity record first,
// so the rejoiner resumes its sequence space.
func (au *auditLayer) dropIdentity(id graph.NodeID) {
	if o := au.observers[id]; o != nil {
		o.bseqNext = 0
		clear(o.bseqOf)
	}
}

func (au *auditLayer) restoreIdentity(_ *World, id graph.NodeID, rec IdentityRecord) {
	if rec.BSeqNext > 0 {
		au.observer(id).bseqNext = rec.BSeqNext
	}
}

// retire wipes an entity's audit ledger — its receipt store, gossip
// queue, pins, advertisement and pull bookkeeping, and the convictions IT
// holds against others. A session-keyed departure calls it (the departing
// session's memory dies with it), as does the eviction of a departed
// durable identity's record.
func (au *auditLayer) retire(id graph.NodeID) { delete(au.observers, id) }

// purgeAbout wipes every observer's audit state ABOUT one identity, in
// one pass over the ledgers: the stored and pending receipts naming it as
// sender, its pins, and the standing convictions against it. This is the
// session-keyed rejoin's forgetting — a fresh principal arrives with no
// record — and the count of erased convictions is the laundering
// measurement: it is added to ConvictionsLaundered and returned.
// everProven survives as accounting, and the world-held ground truth
// (truthFP/provenB) is untouched: the old session's equivocations really
// happened.
func (au *auditLayer) purgeAbout(w *World, id graph.NodeID) int {
	wiped := 0
	for _, o := range au.observers {
		if _, ok := o.proven[id]; ok {
			delete(o.proven, id)
			wiped++
		}
		o.forget(id)
	}
	w.identStats.ConvictionsLaundered += wiped
	return wiped
}

// pardon clears the audit conviction behind a paroled link, including the
// offender's stored and pending receipts at that observer: re-conviction
// requires FRESH conflicting evidence, not a replay of the old pair.
func (au *auditLayer) pardon(by, offender graph.NodeID) {
	if o := au.observers[by]; o != nil {
		delete(o.proven, offender)
		o.forget(offender)
	}
}

// AuditTotals sums the audit sublayer's counters over every entity (the
// zero value when the sublayer is disabled).
func (w *World) AuditTotals() AuditCounters {
	if w.audit == nil {
		return AuditCounters{}
	}
	return w.audit.totals
}

// AuditSummary reports the run's equivocation ground truth against what
// the gossip proved (the zero value when the sublayer is disabled).
func (w *World) AuditSummary() AuditSummary {
	var s AuditSummary
	if w.audit == nil {
		return s
	}
	for k, fps := range w.audit.truthFP {
		if len(fps) < 2 {
			continue
		}
		s.EquivocatedBroadcasts++
		if w.audit.provenB[k] {
			s.ProvenBroadcasts++
		}
	}
	holders := make(map[graph.NodeID]int)
	for pair := range w.audit.everProven {
		holders[pair[1]]++
	}
	if len(holders) > 0 {
		s.Holders = holders
		for id := range holders {
			s.ProvenOffenders = append(s.ProvenOffenders, id)
		}
		sort.Slice(s.ProvenOffenders, func(i, j int) bool {
			return s.ProvenOffenders[i] < s.ProvenOffenders[j]
		})
	}
	return s
}
