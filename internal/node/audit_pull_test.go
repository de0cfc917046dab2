package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// auditRing5 builds a plain 5-ring 1-2-3-4-5-1. The ring is the smallest
// geometry where an equivocator (3) can partition its two victims (2 and
// 4) so that no single entity ever holds both conflicting receipts under
// 1-hop push: 2's receipt reaches {1, 3}, 4's reaches {3, 5}, and the
// only common holder is the offender itself, whose self-conviction is
// excluded. Entities 1 and 5 are adjacent, so a pull digest across that
// edge is the shortest evidence path.
func auditRing5(cfg Config) (*World, *sim.Engine) {
	e := sim.New()
	w := NewWorld(e, topology.NewManual(), func(graph.NodeID) Behavior { return Nop{} }, cfg)
	for i := 1; i <= 5; i++ {
		w.Join(graph.NodeID(i))
	}
	for i := 1; i <= 5; i++ {
		w.SetLink(graph.NodeID(i), graph.NodeID(i%5+1), true)
	}
	return w, e
}

// ring5Collude runs the partitioned equivocation on the 5-ring: 3 sends
// one broadcast honestly to 2 and tampered to 4, and sends nothing else
// to anyone — the collusion geometry E24 measures, reduced to one lie.
func ring5Collude(t *testing.T, audit AuditConfig) *World {
	t.Helper()
	w, e := auditRing5(Config{
		Seed:  11,
		Auth:  AuthConfig{Enabled: true},
		Audit: audit,
	})
	w.SetSenderHook(func(_ sim.Time, from, to graph.NodeID, tag string, bseq uint64, _ any) (any, bool) {
		if from == 3 && to == 4 && tag == "data" && bseq != 0 {
			return tamperInt{V: 999}, true
		}
		return nil, false
	})
	e.At(1, func() {
		w.Proc(3).Send(2, "data", tamperInt{V: 7})
		w.Proc(3).Send(4, "data", tamperInt{V: 7})
	})
	e.RunUntil(400)
	w.Close()
	return w
}

// TestAuditPushBlindToPartitionedCollusion pins the blind spot the pull
// sublayer exists for: under 1-hop receipt push alone, the partitioned
// victims' conflicting receipts never share an honest holder, so the
// equivocation goes entirely unproven.
func TestAuditPushBlindToPartitionedCollusion(t *testing.T) {
	w := ring5Collude(t, AuditConfig{
		Enabled: true, GossipInterval: 4, HoldFor: 20,
	})
	if got := w.Trace.ProvenEquivocators(); len(got) != 0 {
		t.Fatalf("push-only convicted %v on the partitioned 5-ring", got)
	}
	s := w.AuditSummary()
	if s.EquivocatedBroadcasts != 1 || s.ProvenBroadcasts != 0 {
		t.Fatalf("summary %+v, want 1 equivocated and 0 proven", s)
	}
}

// TestAuditPullConvictsPartitionedCollusion is the tentpole's core
// scenario: the same partitioned lie, with receipt pull anti-entropy on.
// Entity 1 (holding 2's gossiped-in receipt) digests to 5 (holding 4's);
// the fingerprints diverge, 5 pins its copy and answers with it, and 1
// completes the transferable proof no push ever could.
func TestAuditPullConvictsPartitionedCollusion(t *testing.T) {
	w := ring5Collude(t, AuditConfig{
		Enabled: true, GossipInterval: 4, HoldFor: 20,
		Pull: true, PullInterval: 8,
	})
	if got := w.Trace.ProvenEquivocators(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("proven equivocators = %v, want [3]", got)
	}
	s := w.AuditSummary()
	if s.EquivocatedBroadcasts != 1 || s.ProvenBroadcasts != 1 {
		t.Fatalf("summary %+v, want the one equivocation proven", s)
	}
	if !w.Quarantined(2, 3) || !w.Quarantined(4, 3) {
		t.Fatal("victims did not quarantine the convicted colluder")
	}
	tot := w.AuditTotals()
	if tot.PullsSent == 0 || tot.PullReplies == 0 {
		t.Fatalf("conviction did not travel the pull path: %+v", tot)
	}
	if tot.Pinned == 0 {
		t.Fatalf("the divergence responder never pinned its evidence: %+v", tot)
	}
	// No framing: only the real offender's links are quarantined.
	for by := 1; by <= 5; by++ {
		for off := 1; off <= 5; off++ {
			if off != 3 && w.Quarantined(graph.NodeID(by), graph.NodeID(off)) {
				t.Fatalf("honest link %d-%d quarantined", by, off)
			}
		}
	}
}

// TestAuditPullTTLForwarding prices the digest walk depth: on a 6-ring
// with the offender (1) lying to its two ring neighbors (2 and 6) and
// refusing all audit-sublayer cooperation — no receipt gossip, no pull
// answers, the behavior a real adversary would exhibit — the honest
// holder sets are {2, 3} and {5, 6}, two hops apart through entity 4. A
// TTL-1 digest dies at 4's empty store; a TTL-2 digest is forwarded one
// hop further, meets the divergent copy, and the response unwinds along
// the recorded path to complete the proof.
func TestAuditPullTTLForwarding(t *testing.T) {
	build := func(ttl int) *World {
		e := sim.New()
		w := NewWorld(e, topology.NewManual(), func(graph.NodeID) Behavior { return Nop{} }, Config{
			Seed: 13,
			Auth: AuthConfig{Enabled: true},
			Audit: AuditConfig{
				Enabled: true, GossipInterval: 4, HoldFor: 20,
				Pull: true, PullInterval: 8, PullTTL: ttl,
			},
		})
		for i := 1; i <= 6; i++ {
			w.Join(graph.NodeID(i))
		}
		for i := 1; i <= 6; i++ {
			w.SetLink(graph.NodeID(i), graph.NodeID(i%6+1), true)
		}
		w.SetChannelHook(func(_ sim.Time, from, _ graph.NodeID, tag string) ChannelFault {
			if from == 1 && (tag == AuditReceiptTag || tag == AuditProofTag ||
				tag == AuditPullTag || tag == AuditPullRespTag) {
				return ChannelFault{Drop: true}
			}
			return ChannelFault{}
		})
		w.SetSenderHook(func(_ sim.Time, from, to graph.NodeID, tag string, bseq uint64, _ any) (any, bool) {
			if from == 1 && to == 6 && tag == "data" && bseq != 0 {
				return tamperInt{V: 999}, true
			}
			return nil, false
		})
		e.At(1, func() {
			w.Proc(1).Send(2, "data", tamperInt{V: 7})
			w.Proc(1).Send(6, "data", tamperInt{V: 7})
		})
		e.RunUntil(600)
		w.Close()
		return w
	}
	if got := build(1).Trace.ProvenEquivocators(); len(got) != 0 {
		t.Fatalf("TTL 1 convicted %v across a two-hop evidence gap", got)
	}
	if got := build(2).Trace.ProvenEquivocators(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("TTL 2 proved %v, want [1]", got)
	}
}

// seedReceipts hand-records signed receipts at one observer, driving the
// retention machinery directly — the deterministic harness for the
// eviction attack, with no scheduler timing in the way.
func seedWorld(t *testing.T, retention string, retain int) (*World, *auditLayer) {
	t.Helper()
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior { return Nop{} }, Config{
		Seed: 17,
		Auth: AuthConfig{Enabled: true},
		Audit: AuditConfig{
			Enabled:   true,
			Retention: retention, Retain: retain,
		},
	})
	w.Join(1)
	w.Join(2)
	return w, w.audit
}

// TestAuditRetentionEvictionAttack replays ROADMAP's eviction attack at
// the store level: the contested receipt lands first, the offender then
// cycles Retain+k fresh broadcast numbers, and only afterwards does the
// conflicting receipt arrive. The seed FIFO store has evicted the
// evidence by then and the conviction is lost; the pinned policy's
// probationary ordering sheds the offender's own chaff instead and the
// late conflict still convicts.
func TestAuditRetentionEvictionAttack(t *testing.T) {
	const retain = 8
	run := func(retention string) *World {
		w, au := seedWorld(t, retention, retain)
		rA := SignReceipt(1, 42, 1111)
		au.record(w, w.Proc(2), rA, false)
		for i := 0; i < retain+3; i++ {
			chaff := SignReceipt(1, uint64(1000+i), uint64(5000+i))
			au.record(w, w.Proc(2), chaff, false)
		}
		rB := SignReceipt(1, 42, 2222)
		au.record(w, w.Proc(2), rB, false)
		w.Close()
		return w
	}
	if got := run(RetentionFIFO).Trace.ProvenEquivocators(); len(got) != 0 {
		t.Fatalf("FIFO retention convicted %v — the eviction attack should have won", got)
	}
	if got := run(RetentionPinned).Trace.ProvenEquivocators(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pinned retention proved %v, want [1]", got)
	}
}

// TestAuditRetainExactCap: the store never exceeds Retain under either
// policy, at the boundary and one past it.
func TestAuditRetainExactCap(t *testing.T) {
	const retain = 4
	for _, retention := range []string{RetentionFIFO, RetentionPinned} {
		w, au := seedWorld(t, retention, retain)
		for i := 0; i <= retain; i++ {
			au.record(w, w.Proc(2), SignReceipt(1, uint64(i), uint64(100+i)), false)
			want := i + 1
			if want > retain {
				want = retain
			}
			if got := len(au.observers[2].order); got != want {
				t.Fatalf("%s: after %d records store holds %d, want %d", retention, i+1, got, want)
			}
			if got := len(au.observers[2].receipts); got != len(au.observers[2].order) {
				t.Fatalf("%s: order and store diverge: %d vs %d", retention, len(au.observers[2].order), got)
			}
		}
		if ev := au.totals.Evicted; ev != 1 {
			t.Fatalf("%s: evicted %d, want exactly 1 past the cap", retention, ev)
		}
		w.Close()
	}
}

// TestAuditInlineFlushWithoutGossipLoop is the regression for the
// unbounded-pending bug: with the audit sublayer enabled but the gossip
// loop not running (interval forced to zero), own-observed receipts must
// still drain — record flushes them inline instead of queueing forever.
func TestAuditInlineFlushWithoutGossipLoop(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior { return Nop{} }, Config{
		Seed:  19,
		Auth:  AuthConfig{Enabled: true},
		Audit: AuditConfig{Enabled: true},
	})
	// Force the degenerate interval BEFORE any entity joins, so start()
	// never schedules the gossip loop — the config path a future caller
	// could plausibly reach.
	w.audit.cfg.GossipInterval = 0
	w.Join(1)
	w.Join(2)
	const n = 40
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+2*i), func() {
			w.Proc(1).Send(2, "data", tamperInt{V: i})
		})
	}
	e.RunUntil(200)
	w.Close()
	if q := len(w.audit.observers[2].pending); q != 0 {
		t.Fatalf("pending queue holds %d receipts with no gossip loop to drain it", q)
	}
	if w.AuditTotals().ReceiptsSent == 0 {
		t.Fatal("inline flush never gossiped anything")
	}
}

// TestAuditTruthBounded is the regression for unbounded ground-truth
// accretion: a long honest run must keep truthFP at or under its
// 8*Retain cap while divergent entries survive it.
func TestAuditTruthBounded(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior { return Nop{} }, Config{
		Seed:  23,
		Auth:  AuthConfig{Enabled: true},
		Audit: AuditConfig{Enabled: true, Retain: 4, GossipInterval: 4, HoldFor: 8},
	})
	w.Join(1)
	w.Join(2)
	w.Join(3)
	// One real equivocation up front: its divergent truth entry must
	// outlive the honest churn that follows.
	w.SetSenderHook(func(_ sim.Time, from, to graph.NodeID, tag string, bseq uint64, _ any) (any, bool) {
		if from == 1 && to == 3 && tag == "data" && bseq == 1 {
			return tamperInt{V: 999}, true
		}
		return nil, false
	})
	e.At(1, func() {
		w.Proc(1).Send(2, "data", tamperInt{V: 0})
		w.Proc(1).Send(3, "data", tamperInt{V: 0})
	})
	const n = 200
	for i := 1; i <= n; i++ {
		i := i
		e.At(sim.Time(2+2*i), func() {
			w.Proc(1).Send(2, "data", tamperInt{V: 1000 + i})
			w.Proc(1).Send(3, "data", tamperInt{V: 1000 + i})
		})
	}
	e.RunUntil(1000)
	w.Close()
	au := w.audit
	// Bound: single-fingerprint entries cap at 8*Retain; the divergent
	// entry rides on top.
	if got, cap := len(au.truthFP), 8*au.cfg.Retain+len(au.provenB)+1; got > cap {
		t.Fatalf("truthFP grew to %d entries, cap %d", got, cap)
	}
	divergent := 0
	for _, fps := range au.truthFP {
		if len(fps) > 1 {
			divergent++
		}
	}
	if divergent != 1 {
		t.Fatalf("the divergent ground-truth entry was pruned (%d kept)", divergent)
	}
	for id := 1; id <= 3; id++ {
		if got := len(au.observers[graph.NodeID(id)].order); got > au.cfg.Retain {
			t.Fatalf("store at %d holds %d receipts past Retain %d", id, got, au.cfg.Retain)
		}
	}
}
