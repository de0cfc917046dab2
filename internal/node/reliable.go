package node

// The reliable channel sublayer: an opt-in ack/retransmit discipline under
// every Proc.Send, so protocols written for fire-and-forget channels run
// unchanged over lossy, bursty, or temporarily partitioned links. The
// sender tracks each message until the receiver's ack arrives,
// retransmitting with exponential backoff plus deterministic jitter; the
// receiver acks every arriving copy (acks may be lost too) and suppresses
// duplicate deliveries to the behavior. A bounded retry budget keeps a
// permanently departed receiver from pinning the sender forever.
//
// Sequence numbers are world-global and dense (1, 2, 3, …), so the
// bookkeeping indexes instead of hashing. The tracked messages sit in a
// window indexed by seq − base whose base advances past settled heads,
// and each sender threads its own live messages on an intrusive list (a
// quiescence drain walks only those). Settled records are cleared and
// recycled through a free list. The receiver's dedup memory is one bit
// per sequence number. An ack carries the acknowledged number in the
// header's seq word, so its payload is the zero-size ackMsg{} and boxing
// it allocates nothing.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// AckTag is the message tag of the sublayer's acknowledgments. Acks travel
// the same lossy channel as payload, are never seen by behaviors, and are
// excluded from a protocol's tag-filtered message accounting.
const AckTag = "node.ack"

// Trace mark tags emitted by the reliable sublayer.
const (
	// MarkRetry is recorded at the sender per retransmission.
	MarkRetry = "rel.retry"
	// MarkGiveUp is recorded at the sender when the retry budget runs out.
	MarkGiveUp = "rel.give-up"
	// MarkDupSuppressed is recorded at the receiver when a duplicate copy
	// is acked but not re-delivered to the behavior.
	MarkDupSuppressed = "rel.dup-suppressed"
)

// ReliableConfig parameterizes the ack/retransmit sublayer.
type ReliableConfig struct {
	// Enabled turns the sublayer on.
	Enabled bool
	// RetransmitAfter is the first retransmission timeout. Default 6.
	RetransmitAfter sim.Time
	// MaxRetries is the retry budget per message. Default 8.
	MaxRetries int
	// Adaptive replaces the fixed RetransmitAfter schedule with a
	// Jacobson/Karels RTT estimator: per destination, SRTT and RTTVAR are
	// tracked from acked un-retransmitted messages (Karn's rule), and the
	// first timeout of each message is SRTT + 4·RTTVAR clamped to
	// [minRTO, maxRTO]. The backoff still doubles the timeout across
	// retries of one message. Until the first sample, RetransmitAfter
	// applies.
	Adaptive bool
}

// The reliable sublayer's fixed retransmission timing.
const (
	// retryBackoff multiplies the timeout after each retransmission.
	retryBackoff = 2
	// retryJitter is the most deterministic jitter added to each timeout
	// (drawn from the world's seeded stream, desynchronizing retry
	// storms).
	retryJitter = 2
	// minRTO and maxRTO clamp the adaptive timeout.
	minRTO, maxRTO sim.Time = 2, 64
)

func (rc ReliableConfig) withDefaults() ReliableConfig {
	if rc.RetransmitAfter == 0 {
		rc.RetransmitAfter = 6
	}
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 8
	}
	return rc
}

// Validate reports the first configuration error, or nil, mirroring
// Config.Validate: zero-valued fields mean their defaults and are always
// valid; explicitly out-of-range values are rejected.
func (rc ReliableConfig) Validate() error {
	if rc.RetransmitAfter < 0 {
		return fmt.Errorf("node: negative RetransmitAfter %d", rc.RetransmitAfter)
	}
	if rc.MaxRetries < 0 {
		return fmt.Errorf("node: negative retry budget MaxRetries %d", rc.MaxRetries)
	}
	return nil
}

// ReliableCounters are one entity's sender-side delivery statistics.
type ReliableCounters struct {
	// Acked counts messages confirmed by the receiver.
	Acked int
	// Retries counts retransmissions.
	Retries int
	// GiveUps counts messages abandoned after the retry budget.
	GiveUps int
}

// ackMsg is the payload of an ack. The acknowledged sequence number rides
// the ack's own Message.seq word, so the payload carries nothing: boxing
// a zero-size value allocates nothing. It is not Tamperable, so an
// in-flight corruption mangles an ack beyond parsing (a drop).
type ackMsg struct{}

// Fingerprint implements Fingerprinter.
func (ackMsg) Fingerprint() uint64 { return fpAck }

type pendingMsg struct {
	m Message
	w *World
	// from is the sender's record: its counters, RTT table and unacked
	// list outlive the Proc that sent m.
	from *relSender
	// prev and next thread from's list of live messages.
	prev, next *pendingMsg
	attempts   int
	timeout    sim.Time
	timer      sim.Handle
	// sentAt and retransmitted implement Karn's rule for the adaptive
	// estimator: only messages acked without any retransmission produce an
	// RTT sample (a retransmitted message's ack is ambiguous).
	sentAt        sim.Time
	retransmitted bool
	// live is true from send until settle; a settled record sits on the
	// free list, cleared.
	live bool
}

// rttEstimator is the Jacobson/Karels smoothed RTT tracker of one
// directed pair: SRTT gains 1/8 of each error, RTTVAR 1/4 of its
// magnitude, and the retransmission timeout is SRTT + 4·RTTVAR.
type rttEstimator struct {
	srtt, rttvar float64
	inited       bool
}

func (e *rttEstimator) sample(rtt float64) {
	if !e.inited {
		e.srtt, e.rttvar, e.inited = rtt, rtt/2, true
		return
	}
	err := e.srtt - rtt
	if err < 0 {
		err = -err
	}
	e.rttvar = 0.75*e.rttvar + 0.25*err
	e.srtt = 0.875*e.srtt + 0.125*rtt
}

func (e *rttEstimator) rto() float64 { return e.srtt + 4*e.rttvar }

// relSender is one entity's sender-side record. It is identity-keyed and
// never dropped: the counters are cumulative, and a rejoiner's first
// timeout toward a peer starts from the estimate its last session left.
type relSender struct {
	ReliableCounters
	// rtt holds the adaptive estimator per destination (allocated by the
	// first sample).
	rtt map[graph.NodeID]*rttEstimator
	// unacked heads the list of this sender's live messages, so a
	// quiescence drain asks about its own traffic without scanning the
	// world's.
	unacked *pendingMsg
}

// hasOldPending reports whether any of the sender's live messages stamped
// with an epoch older than e is not handshake traffic: a node's own
// flooded prepare under the previous epoch must not deadlock its drain.
func (s *relSender) hasOldPending(e uint64) bool {
	for pm := s.unacked; pm != nil; pm = pm.next {
		if pm.m.epoch < e && !isReconfigTag(pm.m.Tag) {
			return true
		}
	}
	return false
}

type reliableLayer struct {
	cfg ReliableConfig
	// seq is the last sequence number handed out (world-global, from 1).
	seq uint64
	// window[head:] holds the tracked messages by sequence number, sender
	// side: window[head+i] is seq base+i, nil once settled. The base
	// advances past settled heads, so the window spans the oldest live
	// message to the newest; base+len(window)-head is always seq+1.
	window []*pendingMsg
	head   int
	base   uint64
	// free holds settled records for reuse.
	free []*pendingMsg
	// delivered has bit seq set once that sequence number reached a
	// behavior (receiver side), so retransmitted copies are acked but not
	// replayed. send grows it as it hands numbers out.
	delivered []uint64
	// senders holds one record per entity that ever ran here. Running
	// entities reach theirs through Proc.rel.
	senders map[graph.NodeID]*relSender
	// sampleRTT feeds the estimators from acks: on under Adaptive, and
	// under reconfiguration (a later epoch may flip Adaptive on, so the
	// estimators are kept warm — sampling consumes no rng draws, so a
	// never-reconfigured run is bit-identical either way).
	sampleRTT bool
}

func newReliableLayer(cfg ReliableConfig, reconfig bool) *reliableLayer {
	return &reliableLayer{
		cfg:       cfg,
		base:      1,
		senders:   make(map[graph.NodeID]*relSender),
		sampleRTT: cfg.Adaptive || reconfig,
	}
}

// sender returns an entity's record, creating it on first use.
func (rl *reliableLayer) sender(id graph.NodeID) *relSender {
	s := rl.senders[id]
	if s == nil {
		s = &relSender{}
		rl.senders[id] = s
	}
	return s
}

// tracked returns the live message with sequence number seq, or nil.
func (rl *reliableLayer) tracked(seq uint64) *pendingMsg {
	if seq < rl.base || seq-rl.base >= uint64(len(rl.window)-rl.head) {
		return nil
	}
	return rl.window[rl.head+int(seq-rl.base)]
}

// firstDelivery records that seq, a number send handed out, reached a
// behavior and reports whether it had not before.
func (rl *reliableLayer) firstDelivery(seq uint64) bool {
	word, bit := &rl.delivered[seq>>6], uint64(1)<<(seq&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// rtoFor is the first timeout of a fresh message from s toward to: the
// clamped adaptive estimate when the governing policy is adaptive and one
// exists, the fixed schedule otherwise. The policy is passed in because
// it is epoch-governed (the message's stack decides it); the estimators
// may be warm while the policy says fixed.
func (rl *reliableLayer) rtoFor(adaptive bool, s *relSender, to graph.NodeID) sim.Time {
	if adaptive {
		if e := s.rtt[to]; e != nil && e.inited {
			return min(max(sim.Time(e.rto()+0.5), minRTO), maxRTO)
		}
	}
	return rl.cfg.RetransmitAfter
}

// send tracks p's message m and pushes its first copy into the channel.
func (rl *reliableLayer) send(w *World, p *Proc, m Message) {
	rl.seq++
	m.seq = rl.seq
	if int(m.seq>>6) == len(rl.delivered) {
		rl.delivered = append(rl.delivered, 0) // the dedup bit of m.seq
	}
	// The RTO policy rides the message's stack epoch, fixed at send time:
	// retries of this message keep its policy even if an epoch switch
	// lands mid-flight.
	adaptive := w.stack(m.epoch).Adaptive
	var pm *pendingMsg
	if n := len(rl.free); n > 0 {
		pm = rl.free[n-1]
		rl.free[n-1] = nil
		rl.free = rl.free[:n-1]
	} else {
		pm = new(pendingMsg)
	}
	s := p.rel
	pin(m.Payload)
	pm.m, pm.from, pm.live = m, s, true
	pm.timeout, pm.sentAt = rl.rtoFor(adaptive, s, m.To), w.Engine.Now()
	pm.next = s.unacked
	if s.unacked != nil {
		s.unacked.prev = pm
	}
	s.unacked = pm
	rl.push(pm)
	w.transmit(m)
	rl.scheduleRetry(w, pm)
}

// push appends the newest message to the window. A full buffer whose
// settled prefix is at least half of it is compacted in place instead of
// grown, so a window sliding at a steady width stops allocating.
func (rl *reliableLayer) push(pm *pendingMsg) {
	if len(rl.window) == cap(rl.window) && rl.head > 0 && 2*rl.head >= len(rl.window) {
		n := copy(rl.window, rl.window[rl.head:])
		clear(rl.window[n:])
		rl.window, rl.head = rl.window[:n], 0
	}
	rl.window = append(rl.window, pm)
}

// settle stops tracking a message: acked, abandoned, or orphaned. The
// record stays readable until the caller recycles it.
func (rl *reliableLayer) settle(pm *pendingMsg) {
	pm.live = false
	rl.window[rl.head+int(pm.m.seq-rl.base)] = nil
	for rl.head < len(rl.window) && rl.window[rl.head] == nil {
		rl.head++
		rl.base++
	}
	if rl.head == len(rl.window) {
		rl.window, rl.head = rl.window[:0], 0
	}
	s := pm.from
	if pm.prev != nil {
		pm.prev.next = pm.next
	} else {
		s.unacked = pm.next
	}
	if pm.next != nil {
		pm.next.prev = pm.prev
	}
}

// recycle clears a settled record onto the free list, unpinning its
// payload.
func (rl *reliableLayer) recycle(w *World, pm *pendingMsg) {
	w.frames.unpin(pm.m.Payload)
	*pm = pendingMsg{}
	rl.free = append(rl.free, pm)
}

func (rl *reliableLayer) scheduleRetry(w *World, pm *pendingMsg) {
	delay := pm.timeout + sim.Time(w.r.Intn(retryJitter+1))
	pm.w = w
	pm.timer = w.Engine.AfterCall(delay, fireRetry, pm)
}

// fireRetry is the retransmission timeout of one tracked message. It is
// a shared function (the pendingMsg rides as the event's argument) so
// arming a retry allocates no closure; acked messages cancel the timer
// eagerly and the event never fires. A record is recycled only after its
// timer fired or was canceled, so the live test is a guard, not a path.
func fireRetry(arg any) {
	pm := arg.(*pendingMsg)
	if !pm.live {
		return
	}
	w := pm.w
	rl := w.rel
	now := int64(w.Engine.Now())
	if w.Proc(pm.m.From) == nil {
		// The sender is gone; its channel-layer buffer died with it.
		rl.settle(pm)
		rl.recycle(w, pm)
		return
	}
	if pm.attempts >= rl.cfg.MaxRetries {
		pm.from.GiveUps++
		w.Trace.Mark(now, pm.m.From, MarkGiveUp)
		rl.settle(pm)
		rl.recycle(w, pm)
		return
	}
	pm.attempts++
	pm.retransmitted = true
	pm.from.Retries++
	w.Trace.Mark(now, pm.m.From, MarkRetry)
	w.transmit(pm.m)
	pm.timeout *= retryBackoff
	rl.scheduleRetry(w, pm)
}

func (rl *reliableLayer) terminateAck(w *World, q *Proc, m Message) bool {
	return m.Tag != AckTag || w.terminate(q, m, rl.onAck)
}

// dedup is the reliable.dedup stage: every tracked copy is acked toward
// its sender, over the same impaired channel (the previous ack may have
// been lost), and only its first goes on. The acknowledged sequence
// number rides the ack's header.
func (rl *reliableLayer) dedup(w *World, _ *Proc, m Message) bool {
	if m.seq == 0 {
		return true
	}
	w.transmit(Message{From: m.To, To: m.From, Tag: AckTag, Payload: ackMsg{}, seq: m.seq})
	if rl.firstDelivery(m.seq) {
		return true
	}
	w.Trace.Mark(int64(w.Engine.Now()), m.To, MarkDupSuppressed)
	return false
}

// onAck settles the acked message: cancel its retry timer, count it.
func (rl *reliableLayer) onAck(w *World, _ *Proc, m Message) {
	pm := rl.tracked(m.seq)
	if pm == nil {
		return // duplicate ack, or the sender already gave up
	}
	rl.settle(pm)
	pm.timer.Cancel()
	pm.from.Acked++
	if rl.sampleRTT && !pm.retransmitted {
		e := pm.from.rtt[pm.m.To]
		if e == nil {
			e = &rttEstimator{}
			lazySet(&pm.from.rtt, pm.m.To, e)
		}
		e.sample(float64(w.Engine.Now() - pm.sentAt))
	}
	rl.recycle(w, pm)
}

// ReliableTotals sums the reliable sublayer's counters over every entity
// (the zero value when the sublayer is disabled).
func (w *World) ReliableTotals() ReliableCounters {
	var total ReliableCounters
	if w.rel == nil {
		return total
	}
	for _, s := range w.rel.senders {
		total.Acked += s.Acked
		total.Retries += s.Retries
		total.GiveUps += s.GiveUps
	}
	return total
}
