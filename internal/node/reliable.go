package node

// The reliable channel sublayer: an opt-in ack/retransmit discipline under
// every Proc.Send, so protocols written for fire-and-forget channels run
// unchanged over lossy, bursty, or temporarily partitioned links. The
// sender tracks each message until the receiver's ack arrives,
// retransmitting with exponential backoff plus deterministic jitter; the
// receiver acks every arriving copy (acks may be lost too) and suppresses
// duplicate deliveries to the behavior. A bounded retry budget keeps a
// permanently departed receiver from pinning the sender forever.

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
	// Backoff multiplies the timeout after each retransmission. Default 2.
	Backoff float64
	// MaxRetries is the retry budget per message. Default 8.
	MaxRetries int
	// Jitter is the maximum deterministic jitter added to each timeout
	// (drawn from the world's seeded stream, desynchronizing retry storms).
	// Default 2.
	Jitter sim.Time
	// Adaptive replaces the fixed RetransmitAfter schedule with a
	// Jacobson/Karels RTT estimator: per destination, SRTT and RTTVAR are
	// tracked from acked un-retransmitted messages (Karn's rule), and the
	// first timeout of each message is SRTT + 4·RTTVAR clamped to
	// [MinRTO, MaxRTO]. Backoff still doubles the timeout across retries
	// of one message. Until the first sample, RetransmitAfter applies.
	Adaptive bool
	// MinRTO and MaxRTO clamp the adaptive timeout. Defaults 2 and 64.
	MinRTO, MaxRTO sim.Time
}

func (rc ReliableConfig) withDefaults() ReliableConfig {
	if rc.RetransmitAfter == 0 {
		rc.RetransmitAfter = 6
	}
	if rc.Backoff == 0 {
		rc.Backoff = 2
	}
	if rc.MaxRetries == 0 {
		rc.MaxRetries = 8
	}
	if rc.Jitter == 0 {
		rc.Jitter = 2
	}
	if rc.MinRTO == 0 {
		rc.MinRTO = 2
	}
	if rc.MaxRTO == 0 {
		rc.MaxRTO = 64
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
	if rc.Jitter < 0 {
		return fmt.Errorf("node: negative Jitter %d", rc.Jitter)
	}
	if rc.MaxRetries < 0 {
		return fmt.Errorf("node: negative retry budget MaxRetries %d", rc.MaxRetries)
	}
	if rc.Backoff != 0 && rc.Backoff < 1 {
		return fmt.Errorf("node: Backoff %v below 1 would shrink timeouts", rc.Backoff)
	}
	if rc.MinRTO < 0 || rc.MaxRTO < 0 {
		return fmt.Errorf("node: negative RTO bound [%d, %d]", rc.MinRTO, rc.MaxRTO)
	}
	if rc.MinRTO != 0 && rc.MaxRTO != 0 && rc.MinRTO > rc.MaxRTO {
		return fmt.Errorf("node: inverted RTO bounds: MinRTO %d exceeds MaxRTO %d", rc.MinRTO, rc.MaxRTO)
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

type ackMsg struct {
	Seq uint64
}

// Fingerprint implements Fingerprinter.
func (m ackMsg) Fingerprint() uint64 { return fold(fpAck, m.Seq) }

type pendingMsg struct {
	m Message
	w *World
	// from is the sender's record: its counters, RTT table and unacked set
	// outlive the Proc that sent m.
	from     *relSender
	attempts int
	timeout  sim.Time
	timer    *sim.Event
	// sentAt and retransmitted implement Karn's rule for the adaptive
	// estimator: only messages acked without any retransmission produce an
	// RTT sample (a retransmitted message's ack is ambiguous).
	sentAt        sim.Time
	retransmitted bool
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
	// unacked is this sender's share of reliableLayer.pending, so a
	// quiescence drain asks about its own traffic without scanning the
	// world's.
	unacked map[uint64]*pendingMsg
}

type reliableLayer struct {
	cfg ReliableConfig
	seq uint64
	// pending tracks unacked messages by sequence number (sender side).
	pending map[uint64]*pendingMsg
	// delivered remembers which sequence numbers reached a behavior
	// (receiver side), so retransmitted copies are acked but not replayed.
	delivered map[uint64]bool
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
		pending:   make(map[uint64]*pendingMsg),
		delivered: make(map[uint64]bool),
		senders:   make(map[graph.NodeID]*relSender),
		sampleRTT: cfg.Adaptive || reconfig,
	}
}

// sender returns an entity's record, creating it on first use.
func (rl *reliableLayer) sender(id graph.NodeID) *relSender {
	s := rl.senders[id]
	if s == nil {
		s = &relSender{unacked: make(map[uint64]*pendingMsg)}
		rl.senders[id] = s
	}
	return s
}

// rtoFor is the first timeout of a fresh message from s toward to: the
// clamped adaptive estimate when the governing policy is adaptive and one
// exists, the fixed schedule otherwise. The policy is passed in because
// it is epoch-governed (the message's stack decides it); the estimators
// may be warm while the policy says fixed.
func (rl *reliableLayer) rtoFor(adaptive bool, s *relSender, to graph.NodeID) sim.Time {
	if adaptive {
		if e := s.rtt[to]; e != nil && e.inited {
			rto := sim.Time(e.rto() + 0.5)
			if rto < rl.cfg.MinRTO {
				rto = rl.cfg.MinRTO
			}
			if rto > rl.cfg.MaxRTO {
				rto = rl.cfg.MaxRTO
			}
			return rto
		}
	}
	return rl.cfg.RetransmitAfter
}

// send tracks p's message m and pushes its first copy into the channel.
func (rl *reliableLayer) send(w *World, p *Proc, m Message) {
	rl.seq++
	m.seq = rl.seq
	// The RTO policy rides the message's stack epoch, fixed at send time:
	// retries of this message keep its policy even if an epoch switch
	// lands mid-flight.
	adaptive := w.stack(m.epoch).Adaptive
	pm := &pendingMsg{m: m, from: p.rel, timeout: rl.rtoFor(adaptive, p.rel, m.To), sentAt: w.Engine.Now()}
	rl.pending[m.seq] = pm
	p.rel.unacked[m.seq] = pm
	w.transmit(m)
	rl.scheduleRetry(w, pm)
}

// settle stops tracking a message: acked, abandoned, or orphaned.
func (rl *reliableLayer) settle(pm *pendingMsg) {
	delete(rl.pending, pm.m.seq)
	delete(pm.from.unacked, pm.m.seq)
}

func (rl *reliableLayer) scheduleRetry(w *World, pm *pendingMsg) {
	delay := pm.timeout
	if rl.cfg.Jitter > 0 {
		delay += sim.Time(w.r.Intn(int(rl.cfg.Jitter) + 1))
	}
	pm.w = w
	pm.timer = w.Engine.AfterCall(delay, fireRetry, pm)
}

// fireRetry is the retransmission timeout of one tracked message. It is
// a shared function (the pendingMsg rides sim.Event.arg) so arming a
// retry allocates no closure; acked messages cancel the timer eagerly
// and the event never fires.
func fireRetry(arg any) {
	pm := arg.(*pendingMsg)
	w := pm.w
	rl := w.rel
	if _, unacked := rl.pending[pm.m.seq]; !unacked {
		return
	}
	now := int64(w.Engine.Now())
	if _, alive := w.procs[pm.m.From]; !alive {
		// The sender is gone; its channel-layer buffer died with it.
		rl.settle(pm)
		return
	}
	if pm.attempts >= rl.cfg.MaxRetries {
		pm.from.GiveUps++
		w.Trace.Mark(now, pm.m.From, MarkGiveUp)
		rl.settle(pm)
		return
	}
	pm.attempts++
	pm.retransmitted = true
	pm.from.Retries++
	w.Trace.Mark(now, pm.m.From, MarkRetry)
	w.transmit(pm.m)
	pm.timeout = sim.Time(float64(pm.timeout) * rl.cfg.Backoff)
	rl.scheduleRetry(w, pm)
}

// ackBack sends an acknowledgment for the arriving copy toward its
// sender, over the same impaired channel.
func (rl *reliableLayer) ackBack(w *World, m Message) {
	w.transmit(Message{From: m.To, To: m.From, Tag: AckTag, Payload: ackMsg{Seq: m.seq}})
}

// onAck settles the acked message: cancel its retry timer, count it.
func (rl *reliableLayer) onAck(w *World, m Message) {
	seq := m.Payload.(ackMsg).Seq
	pm, ok := rl.pending[seq]
	if !ok {
		return // duplicate ack, or the sender already gave up
	}
	rl.settle(pm)
	if pm.timer != nil {
		pm.timer.Cancel()
	}
	pm.from.Acked++
	if rl.sampleRTT && !pm.retransmitted {
		e := pm.from.rtt[pm.m.To]
		if e == nil {
			e = &rttEstimator{}
			lazySet(&pm.from.rtt, pm.m.To, e)
		}
		e.sample(float64(w.Engine.Now() - pm.sentAt))
	}
}

// ReliableStats returns a copy of the per-entity sender-side counters of
// the reliable sublayer, for the entities that have any. It returns nil
// when the sublayer is disabled.
func (w *World) ReliableStats() map[graph.NodeID]ReliableCounters {
	if w.rel == nil {
		return nil
	}
	out := make(map[graph.NodeID]ReliableCounters)
	for id, s := range w.rel.senders {
		if s.ReliableCounters != (ReliableCounters{}) {
			out[id] = s.ReliableCounters
		}
	}
	return out
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
