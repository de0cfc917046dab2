package node

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

func resolvedStack() StackConfig {
	return StackConfig{
		Adaptive:      true,
		KeyEpoch:      3,
		Retain:        64,
		PullFanout:    3,
		Retention:     RetentionFIFO,
		Durable:       true,
		FenceDepth:    4,
		DrainTimeout:  20,
		PrepareQuorum: 0.75,
	}
}

// TestStackConfigCodecRoundTrip pins the canonical wire form outside the
// fuzzer: encode/decode is lossless both ways, and each class of
// malformed input is rejected rather than silently reinterpreted.
func TestStackConfigCodecRoundTrip(t *testing.T) {
	for name, sc := range map[string]StackConfig{
		"full":    resolvedStack(),
		"genesis": StackConfig{}.withDefaults(),
	} {
		wire := EncodeStackConfig(sc)
		if len(wire) != stackWire {
			t.Fatalf("%s: wire form is %d bytes, want %d", name, len(wire), stackWire)
		}
		back, err := DecodeStackConfig(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back != sc {
			t.Fatalf("%s: round trip changed the config:\n%+v\n%+v", name, sc, back)
		}
		re := EncodeStackConfig(back)
		if string(re) != string(wire) {
			t.Fatalf("%s: re-encode diverged from the original wire form", name)
		}
	}

	good := EncodeStackConfig(resolvedStack())
	corrupt := func(off int, v byte) []byte {
		b := append([]byte{}, good...)
		b[off] = v
		return b
	}
	zero4 := func(off int) []byte {
		b := append([]byte{}, good...)
		copy(b[off:off+4], []byte{0, 0, 0, 0})
		return b
	}
	for name, bad := range map[string][]byte{
		"nil":           nil,
		"truncated":     good[:len(good)-1],
		"trailing":      append(append([]byte{}, good...), 0),
		"zero retain":   zero4(8),
		"zero fanout":   zero4(12),
		"fence 0":       zero4(32),
		"fence beyond":  corrupt(32, maxFenceDepth+1),
		"unknown flags": corrupt(36, 0x80),
		"bad retention": corrupt(37, 9),
		"bad quorum":    corrupt(31, 0xff), // NaN bits -> not in (0, 1]
	} {
		if _, err := DecodeStackConfig(bad); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}

	// Encoding an unresolved config must panic: only resolved configs
	// travel in prepares.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("encoding an unresolved zero config did not panic")
			}
		}()
		EncodeStackConfig(StackConfig{})
	}()
}

// reconfigWorld builds a joined mesh of n nodes with the reconfiguration
// layer on plus the given sublayers, delivering "data" to a collector on
// node 2.
func reconfigWorld(n int, cfg Config) (*World, *sim.Engine, *tcollector) {
	e := sim.New()
	sink := &tcollector{}
	cfg.Reconfig.Enabled = true
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		if id == 2 {
			return sink
		}
		return Nop{}
	}, cfg)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	return w, e, sink
}

// TestReconfigHandshakeCommitsAndSwitches: a single reconfiguration on a
// healthy mesh runs prepare → drain → ack → commit and moves EVERY node
// to the new epoch, with the switch trace-marked and no fence drops, no
// bad wire, no drain timeouts.
func TestReconfigHandshakeCommitsAndSwitches(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 5, MinLatency: 1, MaxLatency: 2,
		Reliable: ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
		Auth:     AuthConfig{Enabled: true},
	})
	e.At(10, func() { w.Reconfigure(1, StackConfig{Adaptive: true}) })
	e.RunUntil(200)
	w.Close()

	if got := w.LatestEpoch(); got != 1 {
		t.Fatalf("latest committed epoch %d, want 1", got)
	}
	for i := graph.NodeID(1); i <= 3; i++ {
		if got := w.EpochOf(i); got != 1 {
			t.Fatalf("node %d at epoch %d, want 1", i, got)
		}
		if !w.StackOf(i).Adaptive {
			t.Fatalf("node %d still runs the fixed RTO policy after the switch", i)
		}
	}
	tot := w.ReconfigTotals()
	if tot.Initiated != 1 || tot.Committed != 1 {
		t.Fatalf("reconfig totals %+v, want 1 initiated and 1 committed", tot)
	}
	if tot.Switches != 3 {
		t.Fatalf("%d switches, want 3 (every node moves once)", tot.Switches)
	}
	if tot.StaleEpochDrops != 0 || tot.BadWire != 0 || tot.DrainTimeouts != 0 {
		t.Fatalf("healthy handshake tripped fences/wire/timeouts: %+v", tot)
	}
	if got := countMarks(w.Trace, core.MarkEpochSwitch); got != 3 {
		t.Fatalf("%d epoch-switch marks, want 3", got)
	}
}

// TestReconfigNoDropNoDouble is the tentpole's core guarantee at the node
// layer: continuous authenticated traffic over a lossy channel crosses a
// live key rotation AND an RTO-policy flip without a single message
// dropped, double-delivered, replay-rejected, or striking anyone.
func TestReconfigNoDropNoDouble(t *testing.T) {
	w, e, sink := reconfigWorld(3, Config{
		Seed: 29, LossRate: 0.1, MinLatency: 1, MaxLatency: 3,
		Reliable: ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 10},
		Auth:     AuthConfig{Enabled: true},
	})
	const n = 40
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+5*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	// Rotate the pair keys mid-traffic, then flip the RTO policy on top
	// of the rotated keys — two epochs land while data is in flight.
	e.At(60, func() { w.Reconfigure(1, StackConfig{KeyEpoch: 1}) })
	e.At(120, func() { w.Reconfigure(3, StackConfig{KeyEpoch: 1, Adaptive: true}) })
	e.RunUntil(600)
	w.Close()

	if len(sink.got) != n {
		t.Fatalf("delivered %d payloads, want %d exactly once", len(sink.got), n)
	}
	seen := map[int]bool{}
	for _, v := range sink.got {
		if seen[v] {
			t.Fatalf("payload %d delivered twice across an epoch boundary", v)
		}
		seen[v] = true
	}
	at := w.AuthTotals()
	if at.RejectedReplay != 0 || at.RejectedCorrupt != 0 || at.Quarantines != 0 {
		t.Fatalf("key rotation tripped the auth layer: %+v", at)
	}
	if rt := w.ReliableTotals(); rt.GiveUps != 0 {
		t.Fatalf("%d give-ups: reconfiguration starved a retransmission", rt.GiveUps)
	}
	rc := w.ReconfigTotals()
	if rc.Committed != 2 || rc.StaleEpochDrops != 0 || rc.BadWire != 0 {
		t.Fatalf("reconfig totals %+v, want 2 committed, 0 fenced, 0 bad wire", rc)
	}
	if got := w.StackOf(2).KeyEpoch; got != 1 {
		t.Fatalf("node 2 verifies under key epoch %d, want 1", got)
	}
}

// TestReconfigKeyRotationKeepsQuarantine: rotating every pair key must
// not launder a standing quarantine — the verdict is identity state, not
// key state.
func TestReconfigKeyRotationKeepsQuarantine(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 7, MinLatency: 1, MaxLatency: 2,
		Auth: AuthConfig{Enabled: true},
	})
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(20, func() { w.auth.quarantine(w, 2, 1) })
	e.At(40, func() { w.Reconfigure(3, StackConfig{KeyEpoch: 1}) })
	e.RunUntil(200)
	w.Close()

	if w.LatestEpoch() != 1 {
		t.Fatal("rotation epoch never committed")
	}
	if !w.Quarantined(2, 1) {
		t.Fatal("key rotation laundered the standing quarantine")
	}
	tot := w.IdentityTotals()
	if tot.QuarantinesLaundered != 0 || tot.ConvictionsLaundered != 0 {
		t.Fatalf("identity totals %+v, want zero laundering", tot)
	}
}

// TestReconfigDurableToggle: flipping identity durability ON through a
// live reconfiguration makes a LATER departure persist its record — the
// Leave/Join semantics ride the epoch current at the transition.
func TestReconfigDurableToggle(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 11, MinLatency: 1, MaxLatency: 2,
		Auth: AuthConfig{Enabled: true},
	})
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(10, func() { w.auth.quarantine(w, 2, 1) })
	e.At(20, func() { w.Reconfigure(2, StackConfig{Durable: true}) })
	e.At(60, func() { w.Leave(1) })
	e.At(90, func() { w.Join(1) })
	e.RunUntil(200)
	w.Close()

	if w.LatestEpoch() != 1 {
		t.Fatal("durability epoch never committed")
	}
	tot := w.IdentityTotals()
	if tot.Saves != 1 || tot.Restores != 1 {
		t.Fatalf("identity totals %+v, want 1 save and 1 restore (durable semantics from the new epoch)", tot)
	}
	if tot.SessionResets != 0 || tot.QuarantinesLaundered != 0 {
		t.Fatalf("toggled-durable rejoin still session-reset: %+v", tot)
	}
	if !w.Quarantined(2, 1) {
		t.Fatal("quarantine did not stick across the durable-epoch rejoin")
	}
}

// TestReconfigJoinerBootstrapsLatest: an entity arriving after a commit
// starts at the latest committed epoch — it never has to replay the
// handshake history.
func TestReconfigJoinerBootstrapsLatest(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 13, MinLatency: 1, MaxLatency: 2,
		Auth: AuthConfig{Enabled: true},
	})
	e.At(10, func() { w.Reconfigure(1, StackConfig{KeyEpoch: 1}) })
	e.At(100, func() { w.Join(9) })
	e.RunUntil(200)
	w.Close()

	if got := w.EpochOf(9); got != 1 {
		t.Fatalf("late joiner at epoch %d, want the latest committed 1", got)
	}
	if got := w.StackOf(9).KeyEpoch; got != 1 {
		t.Fatalf("late joiner keys at generation %d, want 1", got)
	}
}

// TestReconfigEpochFenceNoStrike exercises the fence gate directly: a
// copy stamped beyond FenceDepth epochs behind the receiver is dropped
// and counted, WITHOUT charging the sender's misbehavior budget; a copy
// exactly at the fence is admitted.
func TestReconfigEpochFenceNoStrike(t *testing.T) {
	w, _, _ := reconfigWorld(2, Config{
		Seed: 17, MinLatency: 1, MaxLatency: 2,
		Auth: AuthConfig{Enabled: true},
	})
	rc := w.reconfig
	g := w.GenesisStack() // FenceDepth 2 by default
	for i := 0; i < 3; i++ {
		w.stacks = append(w.stacks, g)
		rc.rounds = append(rc.rounds, epochRound{committed: true, initiator: 1, quorumBase: 2})
	}
	rc.latest = 3
	w.Proc(2).epoch = 3

	if rc.admitEpoch(w, w.Proc(2), Message{From: 1, To: 2, Tag: "data", epoch: 0}) {
		t.Fatal("copy 3 epochs stale passed a fence of depth 2")
	}
	if !rc.admitEpoch(w, w.Proc(2), Message{From: 1, To: 2, Tag: "data", epoch: 1}) {
		t.Fatal("copy exactly at the fence depth was dropped")
	}
	if got := rc.counters.StaleEpochDrops; got != 1 {
		t.Fatalf("%d stale drops counted, want 1", got)
	}
	if got := countMarks(w.Trace, MarkEpochFenced); got != 1 {
		t.Fatalf("%d fence marks, want 1", got)
	}
	got := 0
	for _, ap := range w.auth.peers {
		for _, l := range ap.links {
			if l.struck {
				got++
			}
		}
	}
	if got != 0 {
		t.Fatalf("the fence charged %d strikes; stale honest stragglers must never strike", got)
	}
	w.Close()
}

// TestReconfigDisabledIsInvisible: with the layer off, every accessor
// returns the genesis view and the world carries no epoch machinery —
// the compatibility contract that keeps recorded experiments bit-stable.
func TestReconfigDisabledIsInvisible(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior { return Nop{} }, Config{
		Seed: 3, Auth: AuthConfig{Enabled: true},
	})
	w.Join(1)
	w.Join(2)
	e.RunUntil(50)
	w.Close()

	if w.ReconfigEnabled() {
		t.Fatal("layer reports enabled on a default config")
	}
	if got := w.EpochOf(1); got != 0 {
		t.Fatalf("epoch %d on a disabled layer, want 0", got)
	}
	if tot := w.ReconfigTotals(); tot != (ReconfigCounters{}) {
		t.Fatalf("disabled layer accumulated counters: %+v", tot)
	}
	g := w.GenesisStack()
	if g.Retain != 256 || g.PullFanout != 2 || g.Retention != RetentionPinned {
		t.Fatalf("synthesized genesis stack %+v diverges from the audit defaults", g)
	}
}

// TestIdleReconfigLayerIsInvisible: a world with the reconfiguration
// layer on but never reconfigured runs exactly like one without it — the
// same event sequence and the same sublayer totals — under non-default
// genesis knobs (adaptive RTO, a small FIFO receipt store, durable
// identity) and a corrupt/replay/crash/rejoin storm, so every
// per-epoch read takes its genesis value either way.
func TestIdleReconfigLayerIsInvisible(t *testing.T) {
	type run struct {
		trace []byte
		rel   ReliableCounters
		auth  AuthCounters
		audit AuditCounters
		ident IdentityCounters
	}
	exec := func(enabled bool) run {
		e := sim.New()
		w := NewWorld(e, topology.NewRandomK(5, 3), func(graph.NodeID) Behavior { return &chatter{} }, Config{
			MinLatency: 1, MaxLatency: 3, LossRate: 0.05, Seed: 21,
			Reliable: ReliableConfig{Enabled: true, Adaptive: true},
			Auth:     AuthConfig{Enabled: true, Parole: 60},
			Audit:    AuditConfig{Enabled: true, Retain: 8, Retention: RetentionFIFO, Pull: true},
			Identity: IdentityConfig{Durable: true},
			Reconfig: ReconfigConfig{Enabled: enabled},
		})
		r := rng.New(9)
		w.SetChannelHook(func(_ sim.Time, _, _ graph.NodeID, tag string) ChannelFault {
			if tag != "chat" {
				return ChannelFault{}
			}
			var f ChannelFault
			if r.Bool(0.1) {
				f.Corrupt = func(p any) (any, bool) { return p.(Tamperable).Tamper(r), true }
			}
			if r.Bool(0.05) {
				f.ReplayAfter = 7
			}
			return f
		})
		for id := graph.NodeID(1); id <= 10; id++ {
			w.Join(id)
		}
		e.At(60, func() { w.Crash(4) })
		e.At(80, func() { w.Leave(5); w.Leave(7) })
		e.At(110, func() { w.Recover(4) })
		e.At(130, func() { w.Join(5); w.Join(7) })
		e.RunUntil(300)
		w.Close()
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, w.Trace); err != nil {
			t.Fatal(err)
		}
		return run{buf.Bytes(), w.ReliableTotals(), w.AuthTotals(), w.AuditTotals(), w.IdentityTotals()}
	}
	off, idle := exec(false), exec(true)
	if !bytes.Equal(off.trace, idle.trace) {
		t.Error("an idle reconfiguration layer changed the event sequence")
	}
	if off.rel != idle.rel || off.auth != idle.auth || off.audit != idle.audit || off.ident != idle.ident {
		t.Errorf("an idle reconfiguration layer changed the totals:\noff  %+v %+v %+v %+v\nidle %+v %+v %+v %+v",
			off.rel, off.auth, off.audit, off.ident, idle.rel, idle.auth, idle.audit, idle.ident)
	}
	if off.rel.Retries == 0 || off.auth.RejectedCorrupt == 0 || off.auth.RejectedReplay == 0 || off.audit.Evicted == 0 || off.audit.PullsSent == 0 ||
		off.ident.Saves == 0 || off.ident.Restores == 0 {
		t.Fatalf("storm too tame to reach every knob: %+v %+v %+v %+v", off.rel, off.auth, off.audit, off.ident)
	}
}

// TestReconfigQuorumBaseSkipsCrashed: crashed entities keep their overlay
// edges but can never ack, so a round started while 2 of 8 are crashed
// takes its quorum base from the 6 present ones.
func TestReconfigQuorumBaseSkipsCrashed(t *testing.T) {
	w, e, _ := reconfigWorld(8, Config{Seed: 3, Auth: AuthConfig{Enabled: true}})
	e.At(5, func() { w.Crash(7) })
	e.At(6, func() { w.Crash(8) })
	var ep uint64
	e.At(10, func() { ep = w.Reconfigure(1, StackConfig{KeyEpoch: 1}) })
	e.RunUntil(100)
	w.Close()

	if n := w.Overlay.Graph().NumNodes(); n != 8 {
		t.Fatalf("overlay holds %d nodes, want the crashed ones still in it (8)", n)
	}
	if got := w.reconfig.rounds[ep].quorumBase; got != 6 {
		t.Fatalf("quorum base %d, want the 6 present entities", got)
	}
	if w.LatestEpoch() != ep {
		t.Fatalf("latest epoch %d, want the round committed", w.LatestEpoch())
	}
}
