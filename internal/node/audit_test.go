package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// auditTriangle builds a full-mesh world of entities 1..3 with collectors
// at 2 and 3 — the smallest topology where an equivocator's two victims
// are each other's neighbors, so their conflicting receipts can meet.
func auditTriangle(cfg Config) (*World, *sim.Engine, *tcollector, *tcollector) {
	e := sim.New()
	sink2, sink3 := &tcollector{}, &tcollector{}
	w := NewWorld(e, topology.NewMesh(), func(id graph.NodeID) Behavior {
		switch id {
		case 2:
			return sink2
		case 3:
			return sink3
		}
		return Nop{}
	}, cfg)
	w.Join(1)
	w.Join(2)
	w.Join(3)
	return w, e, sink2, sink3
}

// TestAuditProvesEquivocation is the sublayer's core scenario: entity 1
// broadcasts one payload but lies to entity 3. Both copies carry 1's own
// signature under one broadcast number; 2 and 3 gossip receipts, the
// conflict convicts 1, the quarantine fires through the auth layer, and
// the held lie never reaches 3's behavior.
func TestAuditProvesEquivocation(t *testing.T) {
	w, e, _, sink3 := auditTriangle(Config{
		Seed: 5,
		Auth: AuthConfig{Enabled: true},
		Audit: AuditConfig{
			Enabled: true, GossipInterval: 4, HoldFor: 12,
		},
	})
	w.SetSenderHook(func(_ sim.Time, from, to graph.NodeID, tag string, bseq uint64, payload any) (any, bool) {
		if from == 1 && to == 3 && tag == "data" && bseq != 0 {
			return tamperInt{V: 999}, true
		}
		return nil, false
	})
	e.At(1, func() {
		w.Proc(1).Send(2, "data", tamperInt{V: 7})
		w.Proc(1).Send(3, "data", tamperInt{V: 7})
	})
	e.RunUntil(200)
	w.Close()

	if got := w.Trace.ProvenEquivocators(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("proven equivocators = %v, want [1]", got)
	}
	if !w.Quarantined(2, 1) && !w.Quarantined(3, 1) {
		t.Fatal("no victim quarantined the proven equivocator")
	}
	s := w.AuditSummary()
	if s.EquivocatedBroadcasts != 1 || s.ProvenBroadcasts != 1 {
		t.Fatalf("summary counts %+v, want 1 equivocated and 1 proven", s)
	}
	if len(s.ProvenOffenders) != 1 || s.ProvenOffenders[0] != 1 {
		t.Fatalf("proven offenders %v, want [1]", s.ProvenOffenders)
	}
	for _, v := range sink3.got {
		if v == 999 {
			t.Fatal("the lie reached entity 3's behavior despite the hold window")
		}
	}
	tot := w.AuditTotals()
	if tot.ProofsHeld == 0 {
		t.Fatalf("no entity holds proof: %+v", tot)
	}
	if tot.HeldDropped == 0 || countMarks(w.Trace, MarkAuditHeldDrop) == 0 {
		t.Fatalf("the held lie was not dropped: %+v", tot)
	}
	// The proof pair also travels: some neighbor that never saw the lie
	// directly convicts from the forwarded pair (everProven at 2 AND 3).
	if tot.ProofsForwarded == 0 {
		t.Fatalf("no proof pair was forwarded: %+v", tot)
	}
}

// TestAuditHonestRunInvisible: with nobody lying, the audit sublayer must
// change nothing but latency — every payload arrives exactly once (after
// the hold window), nothing is convicted, dropped or even flagged.
func TestAuditHonestRunInvisible(t *testing.T) {
	w, e, sink2, sink3 := auditTriangle(Config{
		Seed: 9,
		Auth: AuthConfig{Enabled: true},
		Audit: AuditConfig{
			Enabled: true, GossipInterval: 4, HoldFor: 12,
		},
	})
	const n = 10
	for i := 0; i < n; i++ {
		i := i
		e.At(sim.Time(1+3*i), func() {
			w.Proc(1).Send(2, "data", tamperInt{V: i})
			w.Proc(1).Send(3, "data", tamperInt{V: i})
		})
	}
	e.RunUntil(300)
	w.Close()

	if len(sink2.got) != n || len(sink3.got) != n {
		t.Fatalf("delivered %d/%d, want %d/%d", len(sink2.got), len(sink3.got), n, n)
	}
	if got := w.Trace.ProvenEquivocators(); len(got) != 0 {
		t.Fatalf("honest run convicted %v", got)
	}
	s := w.AuditSummary()
	if s.EquivocatedBroadcasts != 0 || s.ProvenBroadcasts != 0 {
		t.Fatalf("honest run recorded divergence: %+v", s)
	}
	tot := w.AuditTotals()
	if tot.HeldDropped != 0 || tot.BadSig != 0 || tot.ProofsHeld != 0 {
		t.Fatalf("honest run tripped the sublayer: %+v", tot)
	}
	if at := w.AuthTotals(); at.Quarantines != 0 {
		t.Fatalf("honest run quarantined: %+v", at)
	}
	if tot.ReceiptsSent == 0 {
		t.Fatalf("receipt gossip never ran: %+v", tot)
	}
}

// TestAuditReceiptRoundTrip pins the wire form and the signature contract
// outside the fuzzer: encode/decode is lossless, honest signatures verify,
// and each single-field perturbation breaks verification.
func TestAuditReceiptRoundTrip(t *testing.T) {
	r := SignReceipt(3, 7, 0xabcdef)
	if !VerifyReceipt(r) {
		t.Fatalf("honest receipt failed verification: %+v", r)
	}
	back, err := DecodeReceipt(EncodeReceipt(r))
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip changed the receipt: %+v -> %+v", r, back)
	}
	if _, err := DecodeReceipt(EncodeReceipt(r)[:16]); err == nil {
		t.Fatal("short input decoded")
	}
	// Senders outside [0, MaxNodeID] are refused, never truncated.
	for _, sender := range []uint64{1 << 31, 1<<64 - 1} {
		if got, err := DecodeReceipt(putU64(EncodeReceipt(r), 0, sender)); err == nil {
			t.Errorf("sender %d decoded as %+v", sender, got)
		}
	}
	for i, bad := range []Receipt{
		{Sender: r.Sender + 1, BSeq: r.BSeq, FP: r.FP, Sig: r.Sig},
		{Sender: r.Sender, BSeq: r.BSeq + 1, FP: r.FP, Sig: r.Sig},
		{Sender: r.Sender, BSeq: r.BSeq, FP: r.FP + 1, Sig: r.Sig},
		{Sender: r.Sender, BSeq: r.BSeq, FP: r.FP, Sig: r.Sig + 1},
	} {
		if VerifyReceipt(bad) {
			t.Fatalf("perturbation %d still verified: %+v", i, bad)
		}
	}
}

// TestParoleHalvesBudget drives the quarantine/parole cycle directly and
// pins the geometric squeeze: each parole reinstates the link with half
// the previous misbehavior budget (3 -> 1 -> 0), and a budget of 0 means
// the very next strike re-quarantines.
func TestParoleHalvesBudget(t *testing.T) {
	w, e, _ := authPairWorld(Config{
		Seed: 31,
		Auth: AuthConfig{Enabled: true, Parole: 50},
	})
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 3 {
		t.Fatalf("initial budget %d, want 3", got)
	}

	w.auth.quarantine(w, 2, 1)
	if !w.Quarantined(2, 1) {
		t.Fatal("link not quarantined")
	}
	e.RunUntil(60)
	if w.Quarantined(2, 1) {
		t.Fatal("parole did not reinstate the link")
	}
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 1 {
		t.Fatalf("budget after first parole %d, want 1 (halved from 3)", got)
	}

	w.auth.quarantine(w, 2, 1)
	e.RunUntil(120)
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 0 {
		t.Fatalf("budget after second parole %d, want 0", got)
	}

	// Budget 0: one strike trips immediately.
	w.auth.strike(w, 2, 1)
	if !w.Quarantined(2, 1) {
		t.Fatal("zero budget did not re-quarantine on the first strike")
	}
	e.RunUntil(200)
	w.Close()

	if got := len(w.ParoleEvents()); got != 3 {
		t.Fatalf("%d parole events, want 3", got)
	}
	if got := countMarks(w.Trace, MarkAuthParole); got != 3 {
		t.Fatalf("%d parole marks, want 3", got)
	}
	if got := len(w.QuarantineEvents()); got != 3 {
		t.Fatalf("%d quarantine events, want 3", got)
	}
}

// TestParolePardonClearsProof: a paroled observer forgets its stored
// evidence about the offender, so re-conviction requires fresh
// conflicting receipts rather than replaying the old pair forever.
func TestParolePardonClearsProof(t *testing.T) {
	w, e, _, _ := auditTriangle(Config{
		Seed: 41,
		Auth: AuthConfig{Enabled: true, Parole: 40},
		Audit: AuditConfig{
			Enabled: true, GossipInterval: 4, HoldFor: 12,
		},
	})
	w.SetSenderHook(func(_ sim.Time, from, to graph.NodeID, tag string, bseq uint64, payload any) (any, bool) {
		if from == 1 && to == 3 && tag == "data" && bseq != 0 {
			return tamperInt{V: 999}, true
		}
		return nil, false
	})
	e.At(1, func() {
		w.Proc(1).Send(2, "data", tamperInt{V: 7})
		w.Proc(1).Send(3, "data", tamperInt{V: 7})
	})
	e.RunUntil(300)
	w.Close()

	if got := len(w.Trace.ProvenEquivocators()); got != 1 {
		t.Fatalf("proven equivocators %d, want 1", got)
	}
	if w.Quarantined(2, 1) || w.Quarantined(3, 1) {
		t.Fatal("parole never reinstated the equivocator's links")
	}
	for _, by := range []graph.NodeID{2, 3} {
		if _, ok := w.audit.observers[by].proven[1]; ok {
			t.Fatalf("observer %d still holds a standing conviction (and its proof pair) after parole", by)
		}
	}
	// Propagation accounting survives the pardon: the offender stays in
	// the run-level summary.
	s := w.AuditSummary()
	if len(s.ProvenOffenders) != 1 || s.Holders[1] == 0 {
		t.Fatalf("pardon erased the run-level evidence view: %+v", s)
	}
}

// TestCrashRecoveryKeepsAuthSeq is the regression test for recovered
// entities' send counters: the auth sublayer's per-pair sequence numbers
// are persisted at crash time and restored on recovery, so a recovered
// entity's first sends continue the pre-crash numbering instead of
// restarting at 1 — which peers' anti-replay windows would reject until
// the quarantine budget ran out.
func TestCrashRecoveryKeepsAuthSeq(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 19,
		Auth: AuthConfig{Enabled: true},
	})
	const before, after = 10, 5
	for i := 0; i < before; i++ {
		i := i
		e.At(sim.Time(1+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(50)
	w.Crash(1)
	e.RunUntil(60)
	w.Recover(1)
	for i := 0; i < after; i++ {
		i := i
		e.At(sim.Time(61+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: 100 + i}) })
	}
	e.RunUntil(200)
	w.Close()

	if len(sink.got) != before+after {
		t.Fatalf("delivered %d, want %d", len(sink.got), before+after)
	}
	tot := w.AuthTotals()
	if tot.RejectedReplay != 0 || tot.Quarantines != 0 {
		t.Fatalf("recovered sender's continuation read as replays: %+v", tot)
	}
}

// TestCrashRecoveryLostStoreReplays is the counterfactual: delete the
// stable store between crash and recovery, and the recovered entity
// restarts its counters at 1 — its post-recovery sends land inside the
// peer's anti-replay window, strike the budget, and get the innocent
// entity quarantined. (This is the failure the persisted counters
// prevent.)
func TestCrashRecoveryLostStoreReplays(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed: 29,
		Auth: AuthConfig{Enabled: true},
	})
	const before, after = 10, 6
	for i := 0; i < before; i++ {
		i := i
		e.At(sim.Time(1+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(50)
	w.Crash(1)
	w.store.Delete(1)
	e.RunUntil(60)
	w.Recover(1)
	for i := 0; i < after; i++ {
		i := i
		e.At(sim.Time(61+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: 100 + i}) })
	}
	e.RunUntil(200)
	w.Close()

	if len(sink.got) != before {
		t.Fatalf("delivered %d, want only the %d pre-crash payloads", len(sink.got), before)
	}
	tot := w.AuthTotals()
	if tot.RejectedReplay == 0 {
		t.Fatalf("restarted counters were not rejected as replays: %+v", tot)
	}
	if tot.Quarantines != 1 {
		t.Fatalf("the amnesiac sender should have been quarantined once: %+v", tot)
	}
}

// TestAuditRequiresAuth pins the config cross-validation: the audit
// sublayer cannot run without the auth sublayer underneath it.
func TestAuditRequiresAuth(t *testing.T) {
	err := Config{Audit: AuditConfig{Enabled: true}}.Validate()
	if err == nil {
		t.Fatal("audit without auth validated")
	}
	if err := (Config{
		Auth:  AuthConfig{Enabled: true},
		Audit: AuditConfig{Enabled: true},
	}).Validate(); err != nil {
		t.Fatalf("audit over auth should validate: %v", err)
	}
}
