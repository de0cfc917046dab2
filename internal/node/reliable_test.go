package node

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

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

// collector records the integer payloads it receives, in arrival order.
type collector struct{ got []int }

func (c *collector) Init(*Proc) {}
func (c *collector) Receive(_ *Proc, m Message) {
	if m.Tag == "data" {
		c.got = append(c.got, m.Payload.(int))
	}
}

func pairWorld(cfg Config) (*World, *sim.Engine, *collector) {
	e := sim.New()
	sink := &collector{}
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		if id == 2 {
			return sink
		}
		return Nop{}
	}, cfg)
	w.Join(1)
	w.Join(2)
	return w, e, sink
}

func countMarks(tr *core.Trace, tag string) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == core.TMark && ev.Tag == tag {
			n++
		}
	}
	return n
}

// TestReliableDeliversUnderHeavyLoss is the sublayer's reason to exist:
// on a channel dropping 40% of everything (payload AND acks), every
// tracked message still reaches the receiver's behavior exactly once.
func TestReliableDeliversUnderHeavyLoss(t *testing.T) {
	w, e, sink := pairWorld(Config{
		Seed:     11,
		LossRate: 0.4,
		Reliable: ReliableConfig{Enabled: true, MaxRetries: 12},
	})
	const n = 20
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+10*i), func() { w.Proc(1).Send(2, "data", i) })
	}
	e.RunUntil(5000)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d payloads, want %d exactly-once deliveries: %v", len(sink.got), n, sink.got)
	}
	seen := map[int]bool{}
	for _, v := range sink.got {
		if seen[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		seen[v] = true
	}
	tot := w.ReliableTotals()
	if tot.Retries == 0 {
		t.Fatal("40% loss produced no retransmissions")
	}
	if tot.Acked == 0 {
		t.Fatal("no message was ever acked")
	}
	if got := countMarks(w.Trace, MarkRetry); got != tot.Retries {
		t.Fatalf("%d retry marks in trace, counters say %d", got, tot.Retries)
	}
}

// TestReliableGivesUpOnDeadChannel: with LossRate 1 nothing ever arrives;
// the sender must burn its full retry budget per message, mark the
// give-up, and stop (no unbounded retry storm).
func TestReliableGivesUpOnDeadChannel(t *testing.T) {
	w, e, sink := pairWorld(Config{
		Seed:     3,
		LossRate: 1,
		Reliable: ReliableConfig{Enabled: true, MaxRetries: 4, RetransmitAfter: 3},
	})
	w.Proc(1).Send(2, "data", 1)
	w.Proc(1).Send(2, "data", 2)
	e.RunUntil(10000)
	w.Close()

	if len(sink.got) != 0 {
		t.Fatalf("total loss delivered %v", sink.got)
	}
	tot := w.ReliableTotals()
	if tot.GiveUps != 2 {
		t.Fatalf("GiveUps = %d, want 2", tot.GiveUps)
	}
	if tot.Retries != 2*4 {
		t.Fatalf("Retries = %d, want both budgets exhausted (8)", tot.Retries)
	}
	if tot.Acked != 0 {
		t.Fatalf("Acked = %d on a dead channel", tot.Acked)
	}
	if countMarks(w.Trace, MarkGiveUp) != 2 {
		t.Fatal("give-ups not marked in trace")
	}
	per := w.ReliableStats()
	if per[1].GiveUps != 2 {
		t.Fatalf("per-sender stats = %+v", per)
	}
}

// TestReliableSuppressesDuplicateCopies: a channel hook duplicating every
// transmission must not double-deliver to the behavior — the receiver
// acks every copy but replays none.
func TestReliableSuppressesDuplicateCopies(t *testing.T) {
	w, e, sink := pairWorld(Config{
		Seed:     5,
		Reliable: ReliableConfig{Enabled: true},
	})
	w.SetChannelHook(func(sim.Time, graph.NodeID, graph.NodeID, string) ChannelFault {
		return ChannelFault{Duplicates: 1}
	})
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+5*i), func() { w.Proc(1).Send(2, "data", i) })
	}
	e.RunUntil(500)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d payloads, want %d", len(sink.got), n)
	}
	if countMarks(w.Trace, MarkDupSuppressed) == 0 {
		t.Fatal("no duplicate copy was suppressed")
	}
	if tot := w.ReliableTotals(); tot.Acked != n {
		t.Fatalf("Acked = %d, want %d", tot.Acked, n)
	}
}

// TestLossRateOneDropsEverything pins the raw channel's edge case: the
// maximal loss rate is a legal config under which nothing is delivered.
func TestLossRateOneDropsEverything(t *testing.T) {
	w, e, sink := pairWorld(Config{Seed: 1, LossRate: 1})
	for i := 0; i < 10; i++ {
		i := i
		e.At(sim.Time(1+i), func() { w.Proc(1).Send(2, "data", i) })
	}
	e.RunUntil(100)
	w.Close()
	if len(sink.got) != 0 {
		t.Fatalf("LossRate 1 delivered %v", sink.got)
	}
	ms := w.Trace.Messages("data")
	if ms.Sent != 10 || ms.Dropped != 10 || ms.Delivered != 0 {
		t.Fatalf("message stats = %+v", ms)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"normal", Config{MinLatency: 1, MaxLatency: 5, LossRate: 0.5}, true},
		{"loss rate one", Config{LossRate: 1}, true},
		{"min above max", Config{MinLatency: 5, MaxLatency: 2}, false},
		{"zero min with max", Config{MaxLatency: 5}, false},
		{"negative min", Config{MinLatency: -1, MaxLatency: 5}, false},
		{"negative loss", Config{LossRate: -0.1}, false},
		{"loss above one", Config{LossRate: 1.1}, false},
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestNewWorldPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld accepted MinLatency > MaxLatency")
		}
	}()
	NewWorld(sim.New(), topology.NewMesh(), nil, Config{MinLatency: 9, MaxLatency: 2})
}

// TestReliableConfigValidate pins the sublayer config's own contract:
// zero-valued fields mean defaults and always pass; explicit out-of-range
// values are each rejected with a distinct error.
func TestReliableConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ReliableConfig
		ok   bool
	}{
		{"zero value", ReliableConfig{}, true},
		{"enabled defaults", ReliableConfig{Enabled: true}, true},
		{"explicit sane", ReliableConfig{Enabled: true, RetransmitAfter: 3, MaxRetries: 4}, true},
		{"adaptive defaults", ReliableConfig{Enabled: true, Adaptive: true}, true},
		{"negative timeout", ReliableConfig{RetransmitAfter: -1}, false},
		{"negative retry budget", ReliableConfig{MaxRetries: -2}, false},
	} {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// TestNewWorldPanicsOnInvalidReliableConfig: the sublayer config is
// validated through the same front door as the channel config.
func TestNewWorldPanicsOnInvalidReliableConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld accepted a negative RetransmitAfter")
		}
	}()
	NewWorld(sim.New(), topology.NewMesh(), nil, Config{
		Reliable: ReliableConfig{Enabled: true, RetransmitAfter: -1},
	})
}

// TestRTTEstimator pins the Jacobson/Karels update rule at the unit
// level: the first sample seeds SRTT and RTTVAR, and a steady RTT
// collapses the variance so the timeout converges onto the RTT itself.
func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	e.sample(8)
	if e.srtt != 8 || e.rttvar != 4 {
		t.Fatalf("first sample: srtt=%v rttvar=%v, want 8 and 4", e.srtt, e.rttvar)
	}
	if e.rto() != 8+4*4 {
		t.Fatalf("initial rto = %v, want srtt + 4·rttvar = 24", e.rto())
	}
	for i := 0; i < 60; i++ {
		e.sample(8)
	}
	if e.srtt != 8 {
		t.Fatalf("steady samples moved srtt to %v", e.srtt)
	}
	if e.rttvar > 0.01 {
		t.Fatalf("steady samples left rttvar at %v, want near 0", e.rttvar)
	}
	if e.rto() >= 9 {
		t.Fatalf("converged rto = %v, want just above the true RTT 8", e.rto())
	}
	// A latency spike reopens the variance and lifts the timeout.
	e.sample(40)
	if e.rto() <= 12 {
		t.Fatalf("rto after a 5x spike = %v, should have reopened", e.rto())
	}
}

// TestAdaptiveTightensTimeout: on a fixed-latency channel the estimator
// learns the true round trip and the next message's timeout collapses
// from the pessimistic configured schedule down near the RTT.
func TestAdaptiveTightensTimeout(t *testing.T) {
	w, e, sink := pairWorld(Config{
		Seed:       13,
		MinLatency: 2,
		MaxLatency: 2,
		Reliable: ReliableConfig{
			Enabled: true, Adaptive: true,
			RetransmitAfter: 40,
		},
	})
	const n = 10
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+10*i), func() { w.Proc(1).Send(2, "data", i) })
	}
	e.RunUntil(500)
	w.Close()
	if len(sink.got) != n {
		t.Fatalf("lossless adaptive channel delivered %d/%d", len(sink.got), n)
	}
	est := w.rel.senders[1].rtt[2]
	if est == nil || !est.inited {
		t.Fatal("acked messages produced no RTT samples")
	}
	// RTT is exactly 4 (2 out + 2 back); the learned timeout must sit far
	// below the configured 40 and at or above the RTT itself.
	if rto := w.rel.rtoFor(true, w.rel.senders[1], 2); rto >= 40 || rto < 4 {
		t.Fatalf("adaptive rtoFor = %d, want in [4, 40)", rto)
	}
	if tot := w.ReliableTotals(); tot.Retries != 0 {
		t.Fatalf("lossless channel retransmitted %d times", tot.Retries)
	}
}

// TestAdaptiveDeliversUnderLoss: the adaptive schedule keeps the
// exactly-once guarantee under heavy loss (Karn's rule never poisons the
// estimator with a retransmitted message's ambiguous ack, so the learned
// timeout stays sane while retries hammer the channel).
func TestAdaptiveDeliversUnderLoss(t *testing.T) {
	w, e, sink := pairWorld(Config{
		Seed:       17,
		LossRate:   0.4,
		MinLatency: 1,
		MaxLatency: 4,
		Reliable: ReliableConfig{
			Enabled: true, Adaptive: true,
			MaxRetries: 12,
		},
	})
	const n = 20
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+10*i), func() { w.Proc(1).Send(2, "data", i) })
	}
	e.RunUntil(5000)
	w.Close()
	if len(sink.got) != n {
		t.Fatalf("delivered %d payloads, want %d exactly once: %v", len(sink.got), n, sink.got)
	}
	seen := map[int]bool{}
	for _, v := range sink.got {
		if seen[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		seen[v] = true
	}
	tot := w.ReliableTotals()
	if tot.Retries == 0 {
		t.Fatal("40% loss produced no retransmissions")
	}
	if est := w.rel.senders[1].rtt[2]; est == nil || !est.inited {
		t.Fatal("no clean ack ever fed the estimator")
	}
	// Karn's rule: the timeout derived from clean samples can never sink
	// below the floor.
	if rto := w.rel.rtoFor(true, w.rel.senders[1], 2); rto < minRTO {
		t.Fatalf("rtoFor = %d violates minRTO %d", rto, minRTO)
	}
}
