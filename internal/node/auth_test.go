package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tamperInt is a Tamperable test payload: Tamper perturbs the value.
type tamperInt struct{ V int }

func (t tamperInt) Tamper(r *rng.Rand) any { return tamperInt{V: t.V + 1000 + r.Intn(100)} }

// tcollector records tamperInt payloads on tag "data".
type tcollector struct{ got []int }

func (c *tcollector) Init(*Proc) {}
func (c *tcollector) Receive(_ *Proc, m Message) {
	if m.Tag == "data" {
		c.got = append(c.got, m.Payload.(tamperInt).V)
	}
}

func authPairWorld(cfg Config) (*World, *sim.Engine, *tcollector) {
	e := sim.New()
	sink := &tcollector{}
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

// corruptHook tampers every "data" transmission from node 1.
func corruptHook() ChannelHook {
	r := rng.New(7)
	return func(_ sim.Time, from, _ graph.NodeID, tag string) ChannelFault {
		if from != 1 || tag != "data" {
			return ChannelFault{}
		}
		return ChannelFault{Corrupt: func(p any) (any, bool) {
			tp, ok := p.(Tamperable)
			if !ok {
				return nil, false
			}
			return tp.Tamper(r), true
		}}
	}
}

// TestAuthCleanRunNoRejections: on clean channels the sublayer is
// invisible — everything verifies, nothing is rejected or quarantined
// (the node-level form of the zero false-quarantine criterion).
func TestAuthCleanRunNoRejections(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 3, MinLatency: 1, MaxLatency: 6,
		Auth: AuthConfig{Enabled: true},
	})
	const n = 30
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(500)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d, want %d", len(sink.got), n)
	}
	tot := w.AuthTotals()
	if tot.RejectedCorrupt != 0 || tot.RejectedReplay != 0 || tot.Quarantines != 0 {
		t.Fatalf("clean run rejected/quarantined: %+v", tot)
	}
	if tot.Accepted != n {
		t.Fatalf("accepted %d, want %d", tot.Accepted, n)
	}
	if ev := w.QuarantineEvents(); len(ev) != 0 {
		t.Fatalf("clean run produced quarantine events: %v", ev)
	}
}

// TestAuthReordersWithinWindowAccepted: jittered latency reorders
// deliveries; the anti-replay window must accept legitimately late
// copies rather than striking the honest sender.
func TestAuthReordersWithinWindowAccepted(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 9, MinLatency: 1, MaxLatency: 20,
		Auth: AuthConfig{Enabled: true},
	})
	const n = 60
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(1000)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d, want %d", len(sink.got), n)
	}
	if tot := w.AuthTotals(); tot.RejectedReplay != 0 {
		t.Fatalf("in-window reorders rejected as replays: %+v", tot)
	}
}

// TestAuthRejectsCorruption: a corrupting channel with auth but no
// reliable layer — nothing tampered reaches the behavior, every
// injection up to the one that trips the budget is rejected with a mark.
func TestAuthRejectsCorruption(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 5,
		Auth: AuthConfig{Enabled: true},
	})
	w.SetChannelHook(corruptHook())
	const n = authBudget + 1
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+3*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(200)
	w.Close()

	if len(sink.got) != 0 {
		t.Fatalf("tampered payloads reached the behavior: %v", sink.got)
	}
	tot := w.AuthTotals()
	if tot.RejectedCorrupt != n {
		t.Fatalf("rejected %d corrupt copies, want %d", tot.RejectedCorrupt, n)
	}
	if got := countMarks(w.Trace, MarkAuthRejectCorrupt); got != n {
		t.Fatalf("%d %s marks, want %d", got, MarkAuthRejectCorrupt, n)
	}
}

// TestAuthWithReliableRetransmitsClean: the composition claim. The hook
// corrupts only the FIRST copy of each message; the rejected copy is not
// acked, so the reliable sender retransmits and the clean retry delivers.
func TestAuthWithReliableRetransmitsClean(t *testing.T) {
	e := sim.New()
	sink := &tcollector{}
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		if id == 2 {
			return sink
		}
		return Nop{}
	}, Config{
		Seed:     13,
		Reliable: ReliableConfig{Enabled: true, RetransmitAfter: 4, MaxRetries: 8},
		Auth:     AuthConfig{Enabled: true},
	})
	w.Join(1)
	w.Join(2)
	r := rng.New(7)
	seen := map[string]int{}
	w.SetChannelHook(func(_ sim.Time, from, _ graph.NodeID, tag string) ChannelFault {
		if from != 1 || tag != "data" {
			return ChannelFault{}
		}
		seen[tag]++
		if seen[tag] > 1 { // corrupt only the first copy per run of sends
			return ChannelFault{}
		}
		return ChannelFault{Corrupt: func(p any) (any, bool) {
			return p.(Tamperable).Tamper(r), true
		}}
	})
	e.At(1, func() { w.Proc(1).Send(2, "data", tamperInt{V: 42}) })
	e.RunUntil(500)
	w.Close()

	if len(sink.got) != 1 || sink.got[0] != 42 {
		t.Fatalf("want exactly the clean payload 42 delivered once, got %v", sink.got)
	}
	if tot := w.AuthTotals(); tot.RejectedCorrupt != 1 {
		t.Fatalf("rejected %d, want the one corrupted first copy", tot.RejectedCorrupt)
	}
	if rel := w.ReliableTotals(); rel.Retries == 0 || rel.Acked != 1 {
		t.Fatalf("reliable layer should have retried past the rejection and been acked: %+v", rel)
	}
}

// TestAuthRejectsForgery: a spoofed sender claim fails verification (the
// forger does not hold the claimed pair's key) and charges the claimed —
// innocent — sender's budget, eventually quarantining it: the framing
// cost of per-neighbor evidence.
func TestAuthRejectsForgery(t *testing.T) {
	e := sim.New()
	sink := &tcollector{}
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		if id == 2 {
			return sink
		}
		return Nop{}
	}, Config{
		Seed: 21,
		Auth: AuthConfig{Enabled: true},
	})
	w.Join(1)
	w.Join(2)
	w.Join(3)
	scapegoat := graph.NodeID(3)
	w.SetChannelHook(func(_ sim.Time, from, _ graph.NodeID, tag string) ChannelFault {
		if from == 1 && tag == "data" {
			return ChannelFault{SpoofFrom: &scapegoat}
		}
		return ChannelFault{}
	})
	const n = 8
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+3*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(200)
	w.Close()

	if len(sink.got) != 0 {
		t.Fatalf("forged copies reached the behavior: %v", sink.got)
	}
	tot := w.AuthTotals()
	if tot.RejectedCorrupt == 0 {
		t.Fatal("forged claims were not rejected")
	}
	if tot.Quarantines != 1 {
		t.Fatalf("want the framed sender quarantined once, got %+v", tot)
	}
	evs := w.QuarantineEvents()
	if len(evs) != 1 || evs[0].Offender != scapegoat || evs[0].By != 2 {
		t.Fatalf("quarantine should blame the claimed sender %d at receiver 2: %v", scapegoat, evs)
	}
	if got := countMarks(w.Trace, MarkAuthQuarantine); got != 1 {
		t.Fatalf("%d quarantine marks, want 1", got)
	}
}

// TestAuthRejectsReplay: a channel replaying each copy later — without
// the reliable layer the anti-replay window is the only filter, and it
// must reject every replayed sequence number exactly once. Each rejection
// is a strike, so the run stays within the budget.
func TestAuthRejectsReplay(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 17,
		Auth: AuthConfig{Enabled: true},
	})
	w.SetChannelHook(func(_ sim.Time, from, _ graph.NodeID, tag string) ChannelFault {
		if from == 1 && tag == "data" {
			return ChannelFault{ReplayAfter: 9}
		}
		return ChannelFault{}
	})
	const n = authBudget
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+4*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(300)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d, want %d exactly-once deliveries", len(sink.got), n)
	}
	tot := w.AuthTotals()
	if tot.RejectedReplay != n {
		t.Fatalf("rejected %d replays, want %d", tot.RejectedReplay, n)
	}
	if got := countMarks(w.Trace, MarkAuthRejectReplay); got != n {
		t.Fatalf("%d %s marks, want %d", got, MarkAuthRejectReplay, n)
	}
}

// TestAuthQuarantineStopsDelivery: after the budget trips, copies from
// the quarantined neighbor are dropped before any further processing.
func TestAuthQuarantineStopsDelivery(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 23,
		Auth: AuthConfig{Enabled: true},
	})
	w.SetChannelHook(corruptHook())
	const n = 10
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+3*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(200)
	w.Close()

	if len(sink.got) != 0 {
		t.Fatalf("tampered payloads reached the behavior: %v", sink.got)
	}
	tot := w.AuthTotals()
	if tot.Quarantines != 1 {
		t.Fatalf("want one quarantine, got %+v", tot)
	}
	// The budget tolerates authBudget strikes; the next trips. Everything
	// after is dropped pre-verification.
	if tot.RejectedCorrupt != authBudget+1 {
		t.Fatalf("rejected %d before quarantine, want %d (budget + tripping strike)", tot.RejectedCorrupt, authBudget+1)
	}
	if tot.DroppedQuarantined != n-authBudget-1 {
		t.Fatalf("dropped %d post-quarantine, want %d", tot.DroppedQuarantined, n-authBudget-1)
	}
}

// TestReplayWindowSemantics pins the sliding-window edge cases.
func TestReplayWindowSemantics(t *testing.T) {
	var rw replayWindow
	cases := []struct {
		seq  uint64
		want bool
	}{
		{5, true},   // first
		{5, false},  // exact replay
		{6, true},   // advance
		{4, true},   // late but in window
		{4, false},  // replay of late copy
		{70, true},  // big jump
		{69, true},  // in window behind new hi
		{6, false},  // fell out of window (behind >= replayWidth)
		{70, false}, // replay of hi
	}
	for i, c := range cases {
		if got := rw.accept(c.seq); got != c.want {
			t.Fatalf("case %d: accept(%d) = %v, want %v", i, c.seq, got, c.want)
		}
	}
}

// TestReplayWindowEdges exercises the exact boundaries the sliding
// window's arithmetic turns on: the explicit uninitialized state (so the
// first sequence number — even 0 — never aliases an empty window), the
// bitmap shift at 63/64/65 (shifting a uint64 by >= 64 is not a plain
// shift in Go), and the behind == replayWidth-1 / replayWidth acceptance
// edge.
func TestReplayWindowEdges(t *testing.T) {
	t.Run("first seq zero", func(t *testing.T) {
		var rw replayWindow
		if !rw.accept(0) {
			t.Fatal("the first sequence number 0 must be accepted")
		}
		if rw.accept(0) {
			t.Fatal("replay of the first sequence number 0 accepted")
		}
		if !rw.accept(1) {
			t.Fatal("advance past 0 rejected")
		}
	})
	t.Run("first seq large", func(t *testing.T) {
		var rw replayWindow
		if !rw.accept(1 << 40) {
			t.Fatal("a large first sequence number must be accepted")
		}
		if rw.accept(1 << 40) {
			t.Fatal("replay of the first sequence number accepted")
		}
	})
	t.Run("shift 63", func(t *testing.T) {
		var rw replayWindow
		rw.accept(100)
		if !rw.accept(163) { // shift 63: bit for 100 lands at position 63
			t.Fatal("jump by 63 rejected")
		}
		if rw.accept(100) {
			t.Fatal("seq 100 at behind 63 is still in the window and marked accepted")
		}
	})
	t.Run("shift 64", func(t *testing.T) {
		var rw replayWindow
		rw.accept(100)
		if !rw.accept(164) { // shift 64: the whole bitmap falls off
			t.Fatal("jump by 64 rejected")
		}
		if rw.accept(100) {
			t.Fatal("seq 100 at behind 64 accepted despite behind >= replayWidth")
		}
		if !rw.accept(101) { // behind 63: bitmap cleared, genuinely new
			t.Fatal("seq 101 rejected — the shift-64 path must clear, not garble, the bitmap")
		}
	})
	t.Run("shift 65", func(t *testing.T) {
		var rw replayWindow
		rw.accept(100)
		if !rw.accept(165) {
			t.Fatal("jump by 65 rejected")
		}
		if !rw.accept(102) { // behind 63, cleared bitmap
			t.Fatal("in-window seq after a 65 jump rejected")
		}
	})
	t.Run("behind width edge", func(t *testing.T) {
		var rw replayWindow
		rw.accept(100)
		if !rw.accept(100 - (replayWidth - 1)) { // behind width-1: judgeable, new
			t.Fatal("behind replayWidth-1 rejected")
		}
		if rw.accept(100 - replayWidth) { // behind width: too old to judge
			t.Fatal("behind replayWidth accepted")
		}
	})
	t.Run("width 64 full span", func(t *testing.T) {
		var rw replayWindow
		rw.accept(200)
		for behind := uint64(1); behind < 64; behind++ {
			if !rw.accept(200 - behind) {
				t.Fatalf("behind %d rejected on first sight", behind)
			}
		}
		for behind := uint64(0); behind < 64; behind++ {
			if rw.accept(200 - behind) {
				t.Fatalf("behind %d accepted twice", behind)
			}
		}
		if rw.accept(136) { // behind 64 == replayWidth: too old to judge
			t.Fatal("behind replayWidth accepted")
		}
	})
}

// TestAuthConfigValidate pins the edge cases.
func TestAuthConfigValidate(t *testing.T) {
	ok := []AuthConfig{{}, {Enabled: true}, {Parole: 40}}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Fatalf("config %+v should validate: %v", c, err)
		}
	}
	bad := []AuthConfig{{Parole: -1}}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v should be rejected", c)
		}
	}
}
