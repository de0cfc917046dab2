// Package tq implements a timed-quorum replicated register over the
// converged PEX overlay — the Gramoli–Raynal "Timed Quorum Systems"
// construction brought to this laboratory's dynamic worlds. Where
// internal/dynreg disseminates epidemically and collapses past a churn
// threshold, tq trades certainty for a time bound: clients assemble
// ~sqrt(N)-member quorums by bounded-TTL random walks on live pex views,
// every value carries a (tag, lease-deadline) pair, and quorum
// intersection is trusted only while the lease — sized from the measured
// churn rate — is unexpired.
//
// The register is single-writer regular by intent, like dynreg, so the
// two checkers are directly comparable. What changes is the failure
// mode: an attempt whose quorum does not assemble within one lease
// window is discarded and retried with exponential backoff under a
// per-operation retry budget, and when the budget is exhausted the
// operation fails soft — a read returns the best value any attempt saw,
// flagged stale, instead of hanging; a write reports the tag it could
// not certify. Graceful degradation (the paper's C5) lifted from
// aggregates to shared memory: violation probability grows smoothly
// with churn instead of cliff-dropping.
package tq

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Message tags.
const (
	TagProbe = "tq.probe"
	TagResp  = "tq.resp"
)

// Trace mark prefixes (parsed by Check / StreamChecker).
const (
	// MarkWriteStart is "tq.wstart:<tag>:<val>".
	MarkWriteStart = "tq.wstart"
	// MarkWriteEnd is "tq.wend:<tag>:<attempt>" — the write's quorum
	// assembled on the given attempt (1 = no retry needed).
	MarkWriteEnd = "tq.wend"
	// MarkWriteSoft is "tq.wsoft:<tag>" — retry budget exhausted; the
	// write is not certified (it may still have partially propagated).
	MarkWriteSoft = "tq.wsoft"
	// MarkReadStart is "tq.rstart:<op>".
	MarkReadStart = "tq.rstart"
	// MarkRead is "tq.read:<op>:<tag>:<val>:<flag>" with flag one of
	// FlagOK, FlagExpired, FlagSoft.
	MarkRead = "tq.read"
	// MarkReadNone is "tq.read-none:<op>" — a soft-failed read that
	// never contacted a value-holding replica.
	MarkReadNone = "tq.read-none"
	// MarkRetry is "tq.retry:<op>:<attempt>" — the given attempt's lease
	// expired before its quorum assembled.
	MarkRetry = "tq.retry"
)

// Read-result flags.
const (
	// FlagOK: quorum assembled within the lease and the returned value's
	// own lease was still live.
	FlagOK = "ok"
	// FlagExpired: quorum assembled, but the freshest value it returned
	// had outlived its lease — intersection with the write's quorum is no
	// longer probabilistically guaranteed. Served, counted, not trusted.
	FlagExpired = "expired"
	// FlagSoft: retry budget exhausted; this is the best value any
	// attempt saw, not a quorum-certified one.
	FlagSoft = "soft"
)

// Config tunes one timed-quorum register client. The zero value of every
// field means "use the default"; WithDefaults materializes them and
// Validate judges the effective values.
type Config struct {
	// QuorumCoeff scales the quorum size: q = ceil(QuorumCoeff*sqrt(N))
	// over the present population N at operation start, clamped to
	// [1, N]. Default 1.0.
	QuorumCoeff float64
	// WalkTTL is the hop budget of each quorum walk. Default 8; must
	// leave room for the initiator inside MaxWirePath.
	WalkTTL int
	// Walkers is the number of parallel walks per attempt. 0 (the
	// default) sizes it automatically: max(2, ceil(2q/WalkTTL)), so the
	// fleet's combined hop budget covers the quorum twice over.
	Walkers int
	// Lease fixes the attempt window and value lease outright. 0 (the
	// default) sizes the lease from the measured churn rate instead:
	// LeaseScale/rate, clamped to [MinLease, MaxLease], where rate is the
	// EWMA per-member turnover per tick sampled every SampleEvery ticks
	// (see Client.Attach).
	Lease sim.Time
	// MinLease / MaxLease bound the auto-sized lease. Defaults 16 / 192.
	MinLease sim.Time
	MaxLease sim.Time
	// LeaseScale is the turnover fraction the lease tolerates: the
	// auto-sized lease expires once rate*lease reaches it. Default 0.5.
	LeaseScale float64
	// SampleEvery is the churn estimator's sampling period. Default 16.
	SampleEvery sim.Time
	// RetryBudget is how many times an operation relaunches after its
	// first attempt's lease expires. Default 3.
	RetryBudget int
	// Backoff is the delay before the first retry; each further retry
	// doubles it. Default 8.
	Backoff sim.Time
	// Seed feeds the per-replica walk randomness.
	Seed uint64
}

// WithDefaults returns a copy with every zero field replaced by its
// default.
func (c Config) WithDefaults() Config {
	if c.QuorumCoeff == 0 {
		c.QuorumCoeff = 1.0
	}
	if c.WalkTTL == 0 {
		c.WalkTTL = 8
	}
	if c.MinLease == 0 {
		c.MinLease = 16
	}
	if c.MaxLease == 0 {
		c.MaxLease = 192
	}
	if c.LeaseScale == 0 {
		c.LeaseScale = 0.5
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 3
	}
	if c.Backoff == 0 {
		c.Backoff = 8
	}
	return c
}

// Validate checks the EFFECTIVE configuration (zero fields judged at
// their defaults) and quotes the offending effective value, matching the
// pex.Config convention.
func (c Config) Validate() error {
	d := c.WithDefaults()
	if d.QuorumCoeff < 0 || math.IsNaN(d.QuorumCoeff) || math.IsInf(d.QuorumCoeff, 0) {
		return fmt.Errorf("tq: QuorumCoeff %v must be a positive finite number", d.QuorumCoeff)
	}
	if d.WalkTTL < 1 || d.WalkTTL > MaxWirePath-1 {
		return fmt.Errorf("tq: WalkTTL %d must be in [1, %d] (the path must fit the wire cap)", d.WalkTTL, MaxWirePath-1)
	}
	if d.Walkers < 0 || d.Walkers > 128 {
		return fmt.Errorf("tq: Walkers %d must be in [0, 128] (0 = auto)", d.Walkers)
	}
	if d.Lease < 0 {
		return fmt.Errorf("tq: Lease %d must be non-negative (0 = auto-size from churn)", d.Lease)
	}
	if d.MinLease < 1 {
		return fmt.Errorf("tq: MinLease %d must be at least 1", d.MinLease)
	}
	if d.MaxLease < d.MinLease {
		return fmt.Errorf("tq: MaxLease %d must be at least MinLease %d", d.MaxLease, d.MinLease)
	}
	if d.LeaseScale <= 0 || math.IsNaN(d.LeaseScale) || math.IsInf(d.LeaseScale, 0) {
		return fmt.Errorf("tq: LeaseScale %v must be a positive finite number", d.LeaseScale)
	}
	if d.SampleEvery < 1 {
		return fmt.Errorf("tq: SampleEvery %d must be at least 1", d.SampleEvery)
	}
	if d.RetryBudget < 0 || d.RetryBudget > 32 {
		return fmt.Errorf("tq: RetryBudget %d must be in [0, 32]", d.RetryBudget)
	}
	if d.Backoff < 1 {
		return fmt.Errorf("tq: Backoff %d must be at least 1", d.Backoff)
	}
	return nil
}

// Counters aggregates one client's protocol activity across a run.
type Counters struct {
	// Operations launched / completed by quorum / failed soft.
	Writes, WriteQuorums, WriteSofts int
	Reads, ReadQuorums, ReadSofts    int
	// ReadExpired counts quorum-completed reads whose freshest value had
	// outlived its lease (a subset of ReadQuorums).
	ReadExpired int
	// Retries counts attempt relaunches across all operations.
	Retries int
	// Walks counts probes launched by initiators; Probes counts probe
	// deliveries at replicas; Forwards counts walk continuations;
	// Responses counts consumed (deduplicated, in-attempt) answers;
	// RespForwards counts response hops relayed along reverse paths.
	Walks, Probes, Forwards, Responses, RespForwards int
	// LateResponses counts answers that arrived after their attempt
	// expired or their operation completed; BadWire counts undecodable
	// payloads; Misrouted counts responses delivered off their path.
	LateResponses, BadWire, Misrouted int
}

// Value is one replica's copy: the writer's tag, the value, and the
// deadline until which the copy's quorum intersection is trusted.
type Value struct {
	Tag      uint64
	Val      float64
	Deadline sim.Time
}

// Client configures and drives one timed-quorum register over one world.
// Build it with NewClient, install Factory() in the world, Bootstrap the
// founding population, Attach the churn estimator, then issue Write/Read
// from the harness.
type Client struct {
	cfg      Config
	counters Counters

	writerTag uint64
	nextOp    uint64

	rateInit              bool
	rate                  float64
	lastJoins, lastLeaves int

	// nbrs and perm are launch's and pickNext's scratch, shared by the
	// world's replicas (one of them runs at a time): the neighbours, then
	// launch's shuffled order of them or pickNext's eligible ones.
	nbrs []graph.NodeID
	perm []int
}

// NewClient validates and defaults the configuration, panicking on
// invalid values (configuration is programmer input, like NewWorld).
func NewClient(cfg Config) *Client {
	d := cfg.WithDefaults()
	if err := d.Validate(); err != nil {
		panic(err.Error())
	}
	return &Client{cfg: d}
}

// Config returns the effective (defaulted) configuration.
func (c *Client) Config() Config { return c.cfg }

// Counters returns the activity counters accumulated so far.
func (c *Client) Counters() Counters { return c.counters }

// MeasuredRate returns the churn estimator's current EWMA per-member
// turnover rate per tick (0 before Attach or before the first sample).
func (c *Client) MeasuredRate() float64 { return c.rate }

// EffectiveLease returns the lease the next attempt would use.
func (c *Client) EffectiveLease() sim.Time {
	if c.cfg.Lease > 0 {
		return c.cfg.Lease
	}
	if c.rate <= 0 {
		return c.cfg.MaxLease
	}
	l := sim.Time(c.cfg.LeaseScale / c.rate)
	if l < c.cfg.MinLease {
		return c.cfg.MinLease
	}
	if l > c.cfg.MaxLease {
		return c.cfg.MaxLease
	}
	return l
}

// quorumSize is ceil(QuorumCoeff*sqrt(n)) clamped to [1, n].
func (c *Client) quorumSize(n int) int {
	if n < 1 {
		n = 1
	}
	q := int(math.Ceil(c.cfg.QuorumCoeff * math.Sqrt(float64(n))))
	if q < 1 {
		q = 1
	}
	if q > n {
		q = n
	}
	return q
}

// walkers is the per-attempt walk fan-out for a quorum of q.
func (c *Client) walkers(q int) int {
	if c.cfg.Walkers > 0 {
		return c.cfg.Walkers
	}
	k := (2*q + c.cfg.WalkTTL - 1) / c.cfg.WalkTTL
	if k < 2 {
		k = 2
	}
	return k
}

// Factory returns the behavior factory for worlds hosting the register.
// Replicas are purely reactive — no periodic gossip; all dissemination
// rides quorum walks — so an idle register costs nothing.
func (c *Client) Factory() node.BehaviorFactory {
	return func(id graph.NodeID) node.Behavior {
		return &replica{client: c, r: rng.New(c.cfg.Seed ^ uint64(id)*0x9e3779b97f4a7c15)}
	}
}

// Bootstrap activates every currently present member with the initial
// value (tag 0), trusted for one MaxLease from now. Call once, before
// any operation, on the founding population; later joiners acquire state
// from write probes that walk through them.
func (c *Client) Bootstrap(w *node.World, initial float64) {
	dl := w.Engine.Now() + c.cfg.MaxLease
	for _, id := range w.Present() {
		b := behaviorOf(w, id)
		b.cur = Value{Tag: 0, Val: initial, Deadline: dl}
		b.active = true
	}
}

// Attach installs the churn estimator: every SampleEvery ticks it reads
// the world's membership turnover counters and folds the per-member rate
// into an EWMA. Stop the returned ticker at horizon. Without Attach an
// auto-sized lease stays at MaxLease (rate 0) — fine for static worlds.
func (c *Client) Attach(w *node.World) *sim.Ticker {
	j, l := w.Turnover()
	c.lastJoins, c.lastLeaves = j, l
	return w.Engine.Every(c.cfg.SampleEvery, func() {
		j, l := w.Turnover()
		n := len(w.Present())
		if n < 1 {
			n = 1
		}
		obs := float64((j-c.lastJoins)+(l-c.lastLeaves)) / (float64(n) * float64(c.cfg.SampleEvery))
		c.lastJoins, c.lastLeaves = j, l
		if !c.rateInit {
			c.rate, c.rateInit = obs, true
			return
		}
		c.rate = 0.7*c.rate + 0.3*obs
	})
}

// Write starts a write of val at the given member (single-writer: always
// use the same member) and returns the tag it is writing under. The
// write completes asynchronously — MarkWriteEnd on quorum, MarkWriteSoft
// on budget exhaustion. It panics if the writer is absent.
func (c *Client) Write(w *node.World, writer graph.NodeID, val float64) uint64 {
	p := w.Proc(writer)
	if p == nil {
		panic(fmt.Sprintf("tq: writer %d not present", writer))
	}
	b := behaviorOf(w, writer)
	c.writerTag++
	c.nextOp++
	lease := c.EffectiveLease()
	op := &opState{
		op:       c.nextOp,
		kind:     KindWrite,
		tag:      c.writerTag,
		val:      val,
		deadline: p.Now() + lease,
		attempt:  1,
		q:        c.quorumSize(len(w.Present())),
	}
	b.ops[op.op] = op
	c.counters.Writes++
	p.Mark(fmt.Sprintf("%s:%d:%g", MarkWriteStart, op.tag, val))
	b.launch(p, op)
	return op.tag
}

// Read starts a read at the given member and returns the operation id
// (0 if the reader is absent). The result arrives asynchronously as a
// MarkRead / MarkReadNone trace mark and in the counters.
func (c *Client) Read(w *node.World, reader graph.NodeID) uint64 {
	p := w.Proc(reader)
	if p == nil {
		return 0
	}
	b := behaviorOf(w, reader)
	c.nextOp++
	op := &opState{
		op:      c.nextOp,
		kind:    KindRead,
		attempt: 1,
		q:       c.quorumSize(len(w.Present())),
	}
	b.ops[op.op] = op
	c.counters.Reads++
	p.Mark(fmt.Sprintf("%s:%d", MarkReadStart, op.op))
	b.launch(p, op)
	return op.op
}

// Stored returns the replica's current copy at the given member, for
// tests and the CLI (not part of the protocol).
func (c *Client) Stored(w *node.World, id graph.NodeID) (Value, bool) {
	p := w.Proc(id)
	if p == nil {
		return Value{}, false
	}
	b, ok := node.FindBehavior[*replica](p.Behavior())
	if !ok || !b.active {
		return Value{}, false
	}
	return b.cur, true
}

func behaviorOf(w *node.World, id graph.NodeID) *replica {
	b, ok := node.FindBehavior[*replica](w.Proc(id).Behavior())
	if !ok {
		panic("tq: world was not built with this client's factory")
	}
	return b
}

// opState is one in-flight operation at its initiator. It dies with the
// initiating entity: a crash mid-operation orphans the op (the checker
// counts the read unfinished; an uncertified write never marks wend).
type opState struct {
	op       uint64
	kind     byte
	tag      uint64   // write: tag being pushed
	val      float64  // write: value being pushed
	deadline sim.Time // write: the value's lease deadline (fixed at start)
	attempt  int
	expired  bool // true between lease expiry and the backoff relaunch
	q        int
	contacts map[graph.NodeID]bool
	best     Value // read: freshest value across ALL attempts
	bestHas  bool
	done     bool
}

// replica is one member's copy plus the operations it initiated. It is
// recoverable: the stored value survives crash–recovery (the op table
// deliberately does not — in-flight attempts die with the entity).
type replica struct {
	client *Client
	r      *rng.Rand
	active bool
	cur    Value
	ops    map[uint64]*opState
}

func (b *replica) Init(p *node.Proc) {
	b.ops = make(map[uint64]*opState)
}

type replicaSnap struct {
	Active bool
	Cur    Value
}

// Snapshot implements node.Recoverable: the stored value persists across
// a crash so a recovered replica rejoins with its last copy (recovery
// bridging), not as a blank joiner.
func (b *replica) Snapshot() any { return replicaSnap{Active: b.active, Cur: b.cur} }

func (b *replica) Restore(p *node.Proc, snap any) {
	b.ops = make(map[uint64]*opState)
	if s, ok := snap.(replicaSnap); ok {
		b.active, b.cur = s.Active, s.Cur
	}
}

func (b *replica) adopt(v Value) {
	if !b.active || v.Tag > b.cur.Tag {
		b.cur = v
		b.active = true
	}
}

func (b *replica) Receive(p *node.Proc, m node.Message) {
	raw, ok := m.Payload.([]byte)
	if !ok {
		b.client.counters.BadWire++
		return
	}
	switch m.Tag {
	case TagProbe:
		pr, err := DecodeProbe(raw)
		if err != nil {
			b.client.counters.BadWire++
			return
		}
		b.onProbe(p, pr)
	case TagResp:
		rp, err := DecodeResp(raw)
		if err != nil {
			b.client.counters.BadWire++
			return
		}
		b.onResp(p, rp)
	}
}

// onProbe serves one walk contact: adopt the pushed value (writes),
// answer home along the recorded path, and forward the walk to a random
// neighbor it has not visited.
func (b *replica) onProbe(p *node.Proc, pr Probe) {
	c := b.client
	c.counters.Probes++
	if len(pr.Path) == 0 {
		c.counters.BadWire++
		return
	}
	if pr.Kind == KindWrite {
		b.adopt(Value{Tag: pr.Tag, Val: pr.Val, Deadline: sim.Time(pr.Deadline)})
	}
	rp := Resp{
		Op:       pr.Op,
		Kind:     pr.Kind,
		Attempt:  pr.Attempt,
		Has:      b.active,
		Replica:  p.ID,
		Tag:      b.cur.Tag,
		Val:      b.cur.Val,
		Deadline: int64(b.cur.Deadline),
		Path:     pr.Path,
	}
	p.Send(pr.Path[len(pr.Path)-1], TagResp, EncodeResp(rp))
	if pr.TTL <= 1 || len(pr.Path) >= MaxWirePath {
		return
	}
	next, ok := b.pickNext(p, pr.Path)
	if !ok {
		return
	}
	fwd := pr
	fwd.TTL--
	fwd.Path = append(append(make([]graph.NodeID, 0, len(pr.Path)+1), pr.Path...), p.ID)
	p.Send(next, TagProbe, EncodeProbe(fwd))
	c.counters.Forwards++
}

// pickNext draws a uniform random neighbor outside the walk's path.
func (b *replica) pickNext(p *node.Proc, path []graph.NodeID) (graph.NodeID, bool) {
	c := b.client
	c.nbrs = p.AppendNeighbors(c.nbrs[:0])
	// Filtered in place: the eligible list never outruns the read.
	elig := c.nbrs[:0]
	for _, u := range c.nbrs {
		if u != p.ID && !slices.Contains(path, u) {
			elig = append(elig, u)
		}
	}
	if len(elig) == 0 {
		return 0, false
	}
	return elig[b.r.Intn(len(elig))], true
}

// onResp relays a response one hop back along its path, or consumes it
// at the initiator.
func (b *replica) onResp(p *node.Proc, rp Resp) {
	c := b.client
	n := len(rp.Path)
	if n == 0 || rp.Path[n-1] != p.ID {
		c.counters.Misrouted++
		return
	}
	if n > 1 {
		fwd := rp
		fwd.Path = rp.Path[:n-1]
		p.Send(rp.Path[n-2], TagResp, EncodeResp(fwd))
		c.counters.RespForwards++
		return
	}
	op := b.ops[rp.Op]
	if op == nil || op.done || op.expired || rp.Attempt != op.attempt {
		c.counters.LateResponses++
		return
	}
	if op.contacts[rp.Replica] {
		return
	}
	switch op.kind {
	case KindWrite:
		if !rp.Has || rp.Tag < op.tag {
			// The replica answered before adopting a fresher copy — it is
			// not a certified holder of THIS write.
			return
		}
		op.contacts[rp.Replica] = true
	case KindRead:
		if !rp.Has {
			// Inactive joiners do not count toward read quorums.
			return
		}
		op.contacts[rp.Replica] = true
		if !op.bestHas || rp.Tag > op.best.Tag {
			op.best = Value{Tag: rp.Tag, Val: rp.Val, Deadline: sim.Time(rp.Deadline)}
			op.bestHas = true
		}
	}
	c.counters.Responses++
	if len(op.contacts) >= op.q {
		b.complete(p, op)
	}
}

// launch runs one attempt: self-contact, then the walk fleet, then the
// lease-expiry timer that drives retry/soft-fail.
func (b *replica) launch(p *node.Proc, op *opState) {
	c := b.client
	op.expired = false
	op.contacts = make(map[graph.NodeID]bool, op.q)
	if op.kind == KindWrite {
		b.adopt(Value{Tag: op.tag, Val: op.val, Deadline: op.deadline})
		op.contacts[p.ID] = true
	} else if b.active {
		op.contacts[p.ID] = true
		if !op.bestHas || b.cur.Tag > op.best.Tag {
			op.best, op.bestHas = b.cur, true
		}
	}
	if len(op.contacts) >= op.q {
		b.complete(p, op)
		return
	}
	// Walk fleets larger than the view share first hops round-robin:
	// paths diverge from hop 2 on, so a high-degree view is not a
	// prerequisite for assembling quorums past ~viewsize*TTL members.
	c.nbrs = p.AppendNeighbors(c.nbrs[:0])
	if n := len(c.nbrs); n > 0 {
		k := c.walkers(op.q)
		c.perm = slices.Grow(c.perm[:0], n)[:n]
		b.r.PermInto(c.perm)
		for i := 0; i < k; i++ {
			pr := Probe{
				Op:      op.op,
				Kind:    op.kind,
				Attempt: op.attempt,
				TTL:     c.cfg.WalkTTL,
				Path:    []graph.NodeID{p.ID},
			}
			if op.kind == KindWrite {
				pr.Tag, pr.Val, pr.Deadline = op.tag, op.val, int64(op.deadline)
			}
			p.Send(c.nbrs[c.perm[i%n]], TagProbe, EncodeProbe(pr))
			c.counters.Walks++
		}
	}
	att := op.attempt
	p.After(c.EffectiveLease(), func() { b.expire(p, op, att) })
}

// expire handles one attempt's lease running out: relaunch after
// exponential backoff while the budget lasts, then fail soft.
func (b *replica) expire(p *node.Proc, op *opState, attempt int) {
	if op.done || op.attempt != attempt || op.expired {
		return
	}
	c := b.client
	if op.attempt > c.cfg.RetryBudget {
		b.softFail(p, op)
		return
	}
	op.expired = true
	c.counters.Retries++
	p.Mark(fmt.Sprintf("%s:%d:%d", MarkRetry, op.op, op.attempt))
	backoff := c.cfg.Backoff << (op.attempt - 1)
	p.After(backoff, func() {
		if op.done {
			return
		}
		op.attempt++
		b.launch(p, op)
	})
}

func (b *replica) complete(p *node.Proc, op *opState) {
	op.done = true
	delete(b.ops, op.op)
	c := b.client
	if op.kind == KindWrite {
		c.counters.WriteQuorums++
		p.Mark(fmt.Sprintf("%s:%d:%d", MarkWriteEnd, op.tag, op.attempt))
		return
	}
	c.counters.ReadQuorums++
	flag := FlagOK
	if op.best.Deadline < p.Now() {
		flag = FlagExpired
		c.counters.ReadExpired++
	}
	p.Mark(fmt.Sprintf("%s:%d:%d:%g:%s", MarkRead, op.op, op.best.Tag, op.best.Val, flag))
}

// softFail ends an operation whose retry budget is exhausted: the
// best-known value, honestly flagged, instead of a hang.
func (b *replica) softFail(p *node.Proc, op *opState) {
	op.done = true
	delete(b.ops, op.op)
	c := b.client
	if op.kind == KindWrite {
		c.counters.WriteSofts++
		p.Mark(fmt.Sprintf("%s:%d", MarkWriteSoft, op.tag))
		return
	}
	c.counters.ReadSofts++
	if op.bestHas {
		p.Mark(fmt.Sprintf("%s:%d:%d:%g:%s", MarkRead, op.op, op.best.Tag, op.best.Val, FlagSoft))
		return
	}
	p.Mark(fmt.Sprintf("%s:%d", MarkReadNone, op.op))
}
