package node

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

func fullIdentityRecord() IdentityRecord {
	return IdentityRecord{
		BSeqNext: 17,
		SendSeq:  map[graph.NodeID]uint64{2: 9, 5: 3},
		Windows: map[graph.NodeID]ReplayState{
			2: {Hi: 9, Bits: 0b1011},
			7: {Hi: 1, Bits: 1},
		},
		Strikes:     map[graph.NodeID]int{3: 2},
		Budgets:     map[graph.NodeID]int{3: 1},
		Quarantined: map[graph.NodeID]int64{3: 480, 9: 0},
	}
}

// TestIdentityCodecRoundTrip pins the canonical wire form outside the
// fuzzer: encode/decode is lossless, and each class of malformed input is
// rejected rather than silently reinterpreted.
func TestIdentityCodecRoundTrip(t *testing.T) {
	rec := fullIdentityRecord()
	wire := EncodeIdentity(rec)
	back, err := DecodeIdentity(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip changed the record:\n%+v\n%+v", rec, back)
	}

	empty, err := DecodeIdentity(EncodeIdentity(IdentityRecord{}))
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatalf("empty record did not survive the wire: %+v", empty)
	}

	one := EncodeIdentity(IdentityRecord{SendSeq: map[graph.NodeID]uint64{2: 9}})
	for name, bad := range map[string][]byte{
		"nil":       nil,
		"truncated": wire[:len(wire)-1],
		"trailing":  append(append([]byte{}, wire...), 0),
		// Peer IDs outside [0, MaxNodeID] are refused, never truncated.
		"peer 2^31":   putU64(one, 12, 1<<31),
		"peer 2^64-1": putU64(one, 12, 1<<64-1),
	} {
		if _, err := DecodeIdentity(bad); err == nil {
			t.Errorf("%s input decoded without error", name)
		}
	}

	// Unsorted peers: swap the two send-counter entries by hand.
	dup := append([]byte{}, EncodeIdentity(IdentityRecord{
		SendSeq: map[graph.NodeID]uint64{2: 9, 5: 3},
	})...)
	copy(dup[12:28], EncodeIdentity(IdentityRecord{SendSeq: map[graph.NodeID]uint64{5: 3}})[12:28])
	if _, err := DecodeIdentity(dup); err == nil {
		t.Error("out-of-order peers decoded without error")
	}
}

// putU64 overwrites the little-endian uint64 at b[i:] in a copy of b.
func putU64(b []byte, i int, v uint64) []byte {
	c := append([]byte{}, b...)
	binary.LittleEndian.PutUint64(c[i:], v)
	return c
}

// sessionChurnWorld drives the laundering scenario shared by the keying
// tests: 1 sends to 2 (so its record is non-empty), 2 quarantines 1, then
// 1 leaves at 40 and rejoins at 70.
func sessionChurnWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, e, _ := authPairWorld(cfg)
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(20, func() { w.auth.quarantine(w, 2, 1) })
	e.At(40, func() { w.Leave(1) })
	e.At(70, func() { w.Join(1) })
	e.RunUntil(120)
	w.Close()
	return w
}

// TestSessionRejoinLaundersQuarantine is the attack the durable mode
// exists to prevent, measured at the node layer: under session keying a
// quarantined entity leaves, rejoins, and the standing quarantine against
// it is gone — counted and trace-marked.
func TestSessionRejoinLaundersQuarantine(t *testing.T) {
	w := sessionChurnWorld(t, Config{Seed: 3, Auth: AuthConfig{Enabled: true}})
	if w.Quarantined(2, 1) {
		t.Fatal("session-keyed rejoin kept the quarantine")
	}
	tot := w.IdentityTotals()
	if tot.SessionResets != 1 || tot.QuarantinesLaundered != 1 {
		t.Fatalf("identity totals %+v, want 1 reset laundering 1 quarantine", tot)
	}
	if tot.Saves != 0 || tot.Restores != 0 {
		t.Fatalf("session keying touched the stable store: %+v", tot)
	}
	if got := countMarks(w.Trace, core.MarkRejoin); got != 1 {
		t.Fatalf("%d rejoin marks, want 1", got)
	}
	if got := countMarks(w.Trace, MarkIdentReset); got != 1 {
		t.Fatalf("%d ident.reset marks, want 1", got)
	}
}

// TestDurableRejoinConvictionSticks: the same scenario under durable
// identities keeps the quarantine across the gap — the rejoiner is the
// same principal, and its own record travels through the stable store.
func TestDurableRejoinConvictionSticks(t *testing.T) {
	w := sessionChurnWorld(t, Config{
		Seed:     3,
		Auth:     AuthConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	if !w.Quarantined(2, 1) {
		t.Fatal("durable rejoin lost the quarantine")
	}
	tot := w.IdentityTotals()
	if tot.Saves != 1 || tot.Restores != 1 {
		t.Fatalf("identity totals %+v, want 1 save and 1 restore", tot)
	}
	if tot.SessionResets != 0 || tot.QuarantinesLaundered != 0 {
		t.Fatalf("durable keying laundered: %+v", tot)
	}
	if got := countMarks(w.Trace, MarkIdentRestore); got != 1 {
		t.Fatalf("%d ident.restore marks, want 1", got)
	}
	if got := countMarks(w.Trace, core.MarkRejoin); got != 1 {
		t.Fatalf("%d rejoin marks, want 1", got)
	}
}

// TestDurableRejoinResumesSeqSpace: an HONEST churner under durable
// identities resumes its old send-sequence space on rejoin, so its
// post-rejoin traffic lands cleanly inside peers' retained anti-replay
// windows — zero false rejections, zero strikes.
func TestDurableRejoinResumesSeqSpace(t *testing.T) {
	w, e, sink := authPairWorld(Config{
		Seed:     11,
		Auth:     AuthConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	for i := 0; i < 3; i++ {
		i := i
		e.At(sim.Time(5+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.At(20, func() { w.Leave(1) })
	e.At(50, func() { w.Join(1) })
	for i := 3; i < 6; i++ {
		i := i
		e.At(sim.Time(55+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.RunUntil(150)
	w.Close()

	if len(sink.got) != 6 {
		t.Fatalf("delivered %d payloads, want 6", len(sink.got))
	}
	at := w.AuthTotals()
	if at.RejectedReplay != 0 || at.RejectedCorrupt != 0 || at.Quarantines != 0 {
		t.Fatalf("honest churner tripped the auth layer: %+v", at)
	}
	if tot := w.IdentityTotals(); tot.Restores != 1 {
		t.Fatalf("identity totals %+v, want 1 restore", tot)
	}
}

// TestDurableResetRejoinSelfDefeats: the laundering attempt against
// durable identities — shed the stored record, rejoin "clean" — restarts
// the attacker's send counters inside the peer's RETAINED anti-replay
// window, so its fresh traffic reads as replays and charges its budget.
// The quarantine ledger is not the only thing that sticks; so does the
// memory that convicts the reset.
func TestDurableResetRejoinSelfDefeats(t *testing.T) {
	w, e, _ := authPairWorld(Config{
		Seed:     19,
		Auth:     AuthConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	for i := 0; i < 3; i++ {
		i := i
		e.At(sim.Time(5+2*i), func() { w.Proc(1).Send(2, "data", tamperInt{V: i}) })
	}
	e.At(20, func() { w.Leave(1) })
	e.At(40, func() { w.DropIdentityRecord(1) })
	e.At(50, func() { w.Join(1) })
	e.At(60, func() { w.Proc(1).Send(2, "data", tamperInt{V: 9}) })
	e.RunUntil(150)
	w.Close()

	if tot := w.IdentityTotals(); tot.Restores != 0 {
		t.Fatalf("dropped record was restored anyway: %+v", tot)
	}
	at := w.AuthTotals()
	if at.RejectedReplay == 0 {
		t.Fatalf("reset rejoiner's restarted counter was accepted: %+v", at)
	}
}

// TestCrashMidParoleKeepsDeadline is the regression for the parole-clock
// bug: a judge that crashes and recovers mid-parole must release the
// offender at the ORIGINAL absolute deadline (the quarantine ledger and
// its deadlines ride the identity record through the stable store), not
// restart the clock from the recovery — and the post-parole halved budget
// must survive the gap too.
func TestCrashMidParoleKeepsDeadline(t *testing.T) {
	w, e, _ := authPairWorld(Config{
		Seed: 13,
		Auth: AuthConfig{Enabled: true, Parole: 150},
	})
	e.At(10, func() { w.auth.quarantine(w, 2, 1) }) // parole deadline: 160
	e.At(60, func() { w.Crash(2) })
	e.At(110, func() { w.Recover(2) })
	e.RunUntil(155)
	if !w.Quarantined(2, 1) {
		t.Fatal("parole fired before the original deadline")
	}
	e.RunUntil(300)
	w.Close()

	if w.Quarantined(2, 1) {
		t.Fatal("parole never fired after recovery")
	}
	if at, ok := w.Trace.FirstMark(MarkAuthParole); !ok || at != 160 {
		t.Fatalf("parole mark at %d (ok=%v), want exactly 160", at, ok)
	}
	if got := countMarks(w.Trace, MarkAuthParole); got != 1 {
		t.Fatalf("%d parole marks, want 1 (stale timer must no-op)", got)
	}
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 1 {
		t.Fatalf("post-parole budget %d, want 1 (halved from 3 across the crash)", got)
	}
}

// fillDeparted tracks n pinned departed identities that hold no record,
// numbered from 1000 up. Pinned, they keep their slots while any unpinned
// record remains, so the departed-record cap binds on the next
// departedCap-n records the test makes.
func fillDeparted(w *World, n int) {
	for i := 0; i < n; i++ {
		w.retainDeparted(graph.NodeID(1000+i), true)
	}
}

// TestRetainDepartedEviction bounds the durable ledger: past the cap the
// oldest unpinned departed record is deleted, and that identity returns
// fresh.
func TestRetainDepartedEviction(t *testing.T) {
	w, e, _ := authPairWorld(Config{
		Seed:     23,
		Auth:     AuthConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	fillDeparted(w, departedCap-1) // room for one record
	e.At(1, func() { w.Join(3) })
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(6, func() { w.Proc(3).Send(2, "data", tamperInt{V: 3}) })
	e.At(20, func() { w.Leave(1) })
	e.At(30, func() { w.Leave(3) }) // evicts 1's record past the cap
	e.At(40, func() { w.Join(1) })  // fresh: its record is gone
	e.At(50, func() { w.Join(3) })  // restored: still within the cap
	e.RunUntil(100)
	w.Close()

	tot := w.IdentityTotals()
	if tot.Saves != 2 || tot.RecordsEvicted != 1 || tot.Restores != 1 {
		t.Fatalf("identity totals %+v, want 2 saves, 1 eviction, 1 restore", tot)
	}
	if _, ok := w.store.Load(graph.NodeID(1)); ok {
		t.Fatal("evicted record still in the stable store")
	}
}

// departedFloodWorld drives the departed-record eviction attack: witness
// 2 quarantines 1 and departs; a sybil flood (10, 11, 12) then joins,
// sends once and leaves, cycling records through a cap with room for two;
// the witness rejoins last.
func departedFloodWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, e, _ := authPairWorld(cfg)
	fillDeparted(w, departedCap-2)
	e.At(1, func() { w.Join(3) })
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(6, func() { w.Proc(2).Send(3, "data", tamperInt{V: 2}) })
	e.At(10, func() { w.auth.quarantine(w, 2, 1) })
	e.At(20, func() { w.Leave(2) })
	for i, s := range []graph.NodeID{10, 11, 12} {
		s := s
		at := sim.Time(30 + 10*i)
		e.At(at, func() { w.Join(s) })
		e.At(at+2, func() { w.Proc(s).Send(3, "data", tamperInt{V: int(s)}) })
		e.At(at+5, func() { w.Leave(s) })
	}
	e.At(80, func() { w.Join(2) })
	e.RunUntil(150)
	w.Close()
	return w
}

// TestRetainDepartedPinnedSurvivesFlood: the witness's convicting
// record is never the eviction victim while unpinned records remain, so
// a sybil flood only cycles its own empty-handed records, and the
// restored witness still holds the quarantine.
func TestRetainDepartedPinnedSurvivesFlood(t *testing.T) {
	w := departedFloodWorld(t, Config{
		Seed:     37,
		Auth:     AuthConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	if !w.Quarantined(2, 1) {
		t.Fatal("sybil flood evicted the pinned convicting record")
	}
	tot := w.IdentityTotals()
	if tot.RecordsPinned != departedCap-2+1 {
		t.Fatalf("%d records pinned, want the %d fillers and the witness", tot.RecordsPinned, departedCap-2)
	}
	if tot.RecordsEvicted != 2 {
		t.Fatalf("%d evictions, want 2 (the cap stays exact: sybils evict sybils)", tot.RecordsEvicted)
	}
	if tot.Restores == 0 {
		t.Fatal("witness record never restored")
	}
}

// TestSessionRejoinLeavesRetainedLedger: an identity that left durably
// and came back session-keyed is present again, so the departed-record
// cap must not evict it. Here 2 broadcasts and leaves durably, the stack
// turns session-keyed, 2 rejoins and broadcasts twice, the stack turns
// durable again, the cap fills to one free slot, and 3 broadcasts and
// leaves into it: 2's live broadcast counter survives.
func TestSessionRejoinLeavesRetainedLedger(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 29, MinLatency: 1, MaxLatency: 2,
		Auth:     AuthConfig{Enabled: true},
		Audit:    AuditConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	e.At(100, func() { fillDeparted(w, departedCap-1) })
	e.At(5, func() { w.Proc(2).Broadcast("data", tamperInt{V: 0}) })
	e.At(10, func() { w.Leave(2) })
	e.At(20, func() { w.Reconfigure(1, StackConfig{}) })
	e.At(60, func() { w.Join(2) })
	e.At(65, func() { w.Proc(2).Broadcast("data", tamperInt{V: 1}) })
	e.At(67, func() { w.Proc(2).Broadcast("data", tamperInt{V: 2}) })
	e.At(80, func() { w.Reconfigure(1, StackConfig{Durable: true}) })
	e.At(120, func() { w.Proc(3).Broadcast("data", tamperInt{V: 3}) })
	e.At(130, func() { w.Leave(3) })
	e.RunUntil(150)
	w.Close()

	if w.LatestEpoch() != 2 {
		t.Fatalf("latest epoch %d, want both reconfigurations committed", w.LatestEpoch())
	}
	if tot := w.IdentityTotals(); tot.SessionResets != 1 || tot.Saves != 2 {
		t.Fatalf("identity totals %+v, want one session reset and two saves", tot)
	}
	if got := w.identityRecord(2).BSeqNext; got != 2 {
		t.Fatalf("present identity 2 reads BSeqNext %d, want 2: the cap retired its live ledger", got)
	}
}

// TestSessionRejoinDropsStaleDurableRecord extends the sequence above:
// 2 broadcasts and leaves durably, the stack turns session-keyed, 2
// rejoins, broadcasts five times and leaves, the stack turns durable
// again, and 2 rejoins and broadcasts twice. The session rejoin dropped
// the record the durable leave stored, so the durable rejoin restores no
// pre-session BSeqNext; and because 2's last departure was session-keyed,
// it arrives as a fresh principal: the peers forget the receipts and
// replay windows of the session, so its new numbering from 1 neither
// collides with a held receipt nor trips a replay window, and nobody is
// convicted.
func TestSessionRejoinDropsStaleDurableRecord(t *testing.T) {
	w, e, _ := reconfigWorld(3, Config{
		Seed: 29, MinLatency: 1, MaxLatency: 2,
		Auth:     AuthConfig{Enabled: true},
		Audit:    AuditConfig{Enabled: true},
		Identity: IdentityConfig{Durable: true},
	})
	// heldAbout2 counts the receipts the other entities hold from 2.
	heldAbout2 := func() int {
		n := 0
		for id, o := range w.audit.observers {
			for k := range o.receipts {
				if id != 2 && k.sender == 2 {
					n++
				}
			}
		}
		return n
	}
	e.At(5, func() { w.Proc(2).Broadcast("data", tamperInt{V: 0}) })
	e.At(10, func() { w.Leave(2) })
	e.At(20, func() { w.Reconfigure(1, StackConfig{}) })
	e.At(60, func() { w.Join(2) })
	for i := 0; i < 5; i++ {
		e.At(sim.Time(65+2*i), func() { w.Proc(2).Broadcast("data", tamperInt{V: 1 + i}) })
	}
	e.At(90, func() { w.Leave(2) })
	e.At(100, func() { w.Reconfigure(1, StackConfig{Durable: true}) })
	e.At(140, func() { w.Join(2) })
	e.At(145, func() { w.Proc(2).Broadcast("data", tamperInt{V: 10}) })
	e.At(147, func() { w.Proc(2).Broadcast("data", tamperInt{V: 11}) })
	var stored bool
	var heldBefore, heldAfter int
	e.At(61, func() {
		raw, _ := w.store.Load(2)
		snap, _ := raw.(durableSnapshot)
		stored = snap.ident != nil
	})
	e.At(139, func() { heldBefore = heldAbout2() })
	e.At(141, func() { heldAfter = heldAbout2() })
	e.RunUntil(200)
	w.Close()

	if w.LatestEpoch() != 2 {
		t.Fatalf("latest epoch %d, want both reconfigurations committed", w.LatestEpoch())
	}
	if stored {
		t.Fatal("the session-keyed rejoin left the durable leave's identity record in the store")
	}
	if tot := w.IdentityTotals(); tot.Restores != 0 || tot.SessionResets != 2 || tot.Saves != 1 {
		t.Fatalf("identity totals %+v, want no restore, two session resets and one save", tot)
	}
	if heldBefore == 0 || heldAfter != 0 {
		t.Fatalf("peers hold %d receipts from 2's session before the durable rejoin and %d after, want some and none",
			heldBefore, heldAfter)
	}
	if got := w.identityRecord(2).BSeqNext; got != 2 {
		t.Fatalf("2 reads BSeqNext %d after two broadcasts as a fresh principal, want 2", got)
	}
	if n := w.AuthTotals().RejectedReplay; n != 0 {
		t.Fatalf("%d copies rejected as replays: a peer kept a window of 2's session", n)
	}
	if s := w.AuditSummary(); len(s.ProvenOffenders) != 0 {
		t.Fatalf("convicted %v: 2's new numbering collided with receipts of its session", s.ProvenOffenders)
	}
}
