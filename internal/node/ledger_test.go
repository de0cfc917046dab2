package node

// Tests of the per-entity sublayer records as a whole: what one entity's
// ledger encodes to, the order its restore re-arms timers in, and the
// bound "one record per present entity" (see DESIGN.md, sublayer state
// model).

import (
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestParoleRearmOrderIsDeterministic: a durable-identity holder whose
// six parole deadlines all expired while it was away re-arms them at its
// rejoin tick, so all six fire at one tick — in ascending offender order,
// every run. (Re-arming in Go map order made one seed produce different
// traces: 200:5 200:6 200:1 … was observed next to 200:1 200:2 ….)
func TestParoleRearmOrderIsDeterministic(t *testing.T) {
	const want = "200:1 200:2 200:3 200:4 200:5 200:6 "
	for run := 0; run < 30; run++ {
		w, e := meshWorld(nil, Config{
			Seed:     7,
			Auth:     AuthConfig{Enabled: true, Parole: 50},
			Identity: IdentityConfig{Durable: true},
		})
		for id := graph.NodeID(1); id <= 9; id++ {
			w.Join(id)
		}
		e.At(10, func() {
			for off := graph.NodeID(1); off <= 6; off++ {
				w.auth.quarantine(w, 9, off)
			}
		})
		e.At(20, func() { w.Leave(9) })
		e.At(200, func() { w.Join(9) })
		e.RunUntil(300)
		w.Close()
		got := ""
		for _, ev := range w.ParoleEvents() {
			got += fmt.Sprintf("%d:%d ", ev.At, ev.Offender)
		}
		if got != want {
			t.Fatalf("run %d: paroles %q, want %q", run, got, want)
		}
	}
}

// TestIdentityRecordBytesPinned pins the canonical bytes of one scripted
// entity's identity record — it sent to two peers, heard from three,
// struck one, paroled one and quarantined one — as recorded before the
// sublayer state moved from pair-keyed maps to per-entity records. The
// map-presence distinctions the codec carries must survive as struct
// fields: a strike count of 0 after parole is still an entry, a halved
// budget is an entry only where parole ran, a window only where a copy
// was accepted.
func TestIdentityRecordBytesPinned(t *testing.T) {
	w, e := meshWorld(nil, Config{
		Seed:  5,
		Auth:  AuthConfig{Enabled: true, Parole: 50},
		Audit: AuditConfig{Enabled: true},
	})
	for id := graph.NodeID(1); id <= 5; id++ {
		w.Join(id)
	}
	e.At(2, func() {
		w.Proc(2).Send(1, "data", 1)
		w.Proc(2).Send(3, "data", 2)
		w.Proc(2).Send(3, "data", 3)
		for _, from := range []graph.NodeID{1, 3, 4} {
			w.Proc(from).Send(2, "data", int(from))
		}
	})
	e.At(10, func() { w.auth.quarantine(w, 2, 1) }) // paroled at 60
	e.At(65, func() { w.auth.strike(w, 2, 4) })
	e.At(70, func() { w.auth.quarantine(w, 2, 3) }) // deadline 120
	e.RunUntil(sim.Time(80))
	got := hex.EncodeToString(EncodeIdentity(w.identityRecord(2)))
	const want = "0300000000000000040000000100000000000000020000000000000003000000000000000300000000000000" +
		"0400000000000000010000000000000005000000000000000100000000000000030000000100000000000000" +
		"0100000000000000010000000000000003000000000000000200000000000000030000000000000004000000" +
		"0000000001000000000000000100000000000000020000000100000000000000000000000000000004000000" +
		"0000000001000000000000000100000001000000000000000100000000000000010000000300000000000000" +
		"7800000000000000"
	if got != want {
		t.Fatalf("identity record of entity 2 encodes to\n%s\nwant\n%s", got, want)
	}
}

// chatter broadcasts a fresh (tamperable) payload every three ticks, so
// every sublayer of a running entity accumulates state about its
// neighbors.
type chatter struct{ n int }

func (c *chatter) Init(p *Proc) { c.tick(p) }
func (c *chatter) tick(p *Proc) {
	c.n++
	p.Broadcast("chat", tamperInt{V: c.n})
	p.After(3, func() { c.tick(p) })
}
func (c *chatter) Receive(*Proc, Message) {}

// TestSublayerRecordsBoundedByTheLiving drives the full stack under
// rejoining churn and an epoch switch, has every non-founder leave, and
// checks the bound the per-entity records give by construction: each
// sublayer's record map holds at most one record per PRESENT entity —
// under durable identity, plus at most retain audit ledgers kept for the
// departed (pinned fillers take the cap's other slots) — and a departed
// sender's bseq memo is gone with its
// ledger. Then the founders leave too and the world quiesces: the
// reliable window and every sender's list of live messages must be
// empty, and the free list of recycled records no longer than the peak
// number of messages ever in flight at once.
//
// What it does not assert, because it still grows with history (ROADMAP
// item 5): a living entity's links, receipts and RTT estimators about
// identities that never return; reliableLayer.delivered, one bit per
// sequence number ever handed out; the reliable sender records
// themselves (cumulative counters and RTT history, never dropped); pex
// ledger entries about blacklisted absentees; and whatever a crash that
// never recovers leaves behind.
func TestSublayerRecordsBoundedByTheLiving(t *testing.T) {
	const founders, retain = 6, 4
	for _, durable := range []bool{false, true} {
		e := sim.New()
		w := NewWorld(e, topology.NewRandomK(11, 3), func(graph.NodeID) Behavior { return &chatter{} }, Config{
			MinLatency: 1, MaxLatency: 2, Seed: 11,
			Reliable: ReliableConfig{Enabled: true},
			Auth:     AuthConfig{Enabled: true},
			Audit:    AuditConfig{Enabled: true, Pull: true},
			Identity: IdentityConfig{Durable: durable},
			Reconfig: ReconfigConfig{Enabled: true},
		})
		if durable {
			fillDeparted(w, departedCap-retain)
		}
		// Every message's first copy is transmitted right after it enters
		// the window, so sampling there sees the peak in flight.
		peak := 0
		w.SetChannelHook(func(sim.Time, graph.NodeID, graph.NodeID, string) ChannelFault {
			live := 0
			for _, pm := range w.rel.window[w.rel.head:] {
				if pm != nil {
					live++
				}
			}
			peak = max(peak, live)
			return ChannelFault{}
		})
		w.ApplyChurn(churn.New(12, churn.Config{
			InitialPopulation: founders, Immortal: true,
			ArrivalRate: 0.15, Session: churn.ExpSessions(40),
			RejoinProb: 0.6, Downtime: churn.FixedSessions(15),
		}), 400)
		e.At(150, func() { w.Reconfigure(1, StackConfig{KeyEpoch: 1, Adaptive: true}) })
		e.RunUntil(400)
		tot := w.IdentityTotals()
		if tot.SessionResets+tot.Restores == 0 || len(w.DepartedEntities()) <= retain {
			t.Fatalf("durable=%v: churn too tame to test anything: %+v, %d departed", durable, tot, len(w.DepartedEntities()))
		}
		for _, id := range w.Present() {
			if id > founders {
				w.Leave(id)
			}
		}
		e.RunUntil(600)

		present := len(w.Present())
		if present != founders {
			t.Fatalf("durable=%v: %d present after the exodus, want the %d founders", durable, present, founders)
		}
		kept := 0
		if durable {
			kept = retain
		}
		if got := len(w.auth.peers); got > present {
			t.Errorf("durable=%v: %d auth ledgers for %d present entities", durable, got, present)
		}
		if got := len(w.audit.observers); got > present+kept {
			t.Errorf("durable=%v: %d audit ledgers for %d present entities (+%d retained)", durable, got, present, kept)
		}
		held := 0
		w.procs.Each(func(_ graph.NodeID, p *Proc) {
			if p.reconf != nil {
				held++
			}
		})
		if held != present {
			t.Errorf("durable=%v: %d reconfig records for %d present entities", durable, held, present)
		}
		if got := len(w.departed); durable && got > departedCap || !durable && got > 0 {
			t.Errorf("durable=%v: %d departed identities tracked, cap %d", durable, got, departedCap)
		}
		for _, id := range w.DepartedEntities() {
			if o := w.audit.observers[id]; o != nil && (o.bseqNext != 0 || len(o.bseqOf) != 0) {
				t.Errorf("durable=%v: departed sender %d still holds a bseq memo", durable, id)
			}
			if !durable && w.audit.observers[id] != nil {
				t.Errorf("session-keyed departed entity %d still holds an audit ledger", id)
			}
		}

		for _, id := range w.Present() {
			w.Leave(id)
		}
		e.Run()
		w.Close()
		if e.Pending() != 0 {
			t.Fatalf("durable=%v: %d events still pending after the run", durable, e.Pending())
		}
		if live := len(w.rel.window) - w.rel.head; live != 0 {
			t.Errorf("durable=%v: quiesced reliable window spans %d sequence numbers", durable, live)
		}
		for id, s := range w.rel.senders {
			if s.unacked != nil {
				t.Errorf("durable=%v: quiesced sender %d still lists seq %d as live", durable, id, s.unacked.m.seq)
			}
		}
		if n := len(w.rel.free); n == 0 || n > peak {
			t.Errorf("durable=%v: %d recycled records for a peak of %d messages in flight", durable, n, peak)
		}
	}
}
