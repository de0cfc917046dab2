package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/adversary"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// updateDigests re-pins testdata/trace_digests.json from this code:
//
//	go test ./internal/exp -run TestTraceDigests -update
var updateDigests = flag.Bool("update", false, "re-pin testdata/trace_digests.json from this code")

const traceDigestPath = "testdata/trace_digests.json"

// traceDigestCells is one quick cell (seed 1) per sublayer experiment,
// picked so every sublayer's lifecycle path runs: retransmission with the
// adaptive estimator through crashes (E21), budget quarantines (E22),
// proof quarantines with parole and pardon (E23), pull, pins and eviction
// (E24), session-keyed and durable rejoins (E25), epoch switches over
// durable churn (E26), pex with the view audit (E27) — plus four cells no
// experiment has: crash–recovery under the security stack, a
// durable-identity rejoin whose parole deadline expires while the holder
// is away, one reconfiguration round that flips every epoch-governed knob
// (allKnobsCell), and E28's undefended pex world under rejoining churn
// (joiners bootstrap, leavers' links decay, refreshes fire) shrunk to 64
// founders. Three more cells drive the pex reconciler through the ways an
// edge stops being wanted that E27/E28 do not reach, one selection policy
// each: the adversary's partitioner cutting and re-linking a victim (rand),
// rejoin and crash faults whose rejoiners get their old neighbourhood back
// by direct link control (tail), and one-record views with two bootstrap
// contacts, which leave an edge that neither view wants (head). Two
// 1 000-entity random-k cells (k=1 and k=4) pin every draw of the
// overlay's joins and leave-time rescues at a size where a join's
// shuffle spans the whole member list. The last two run the inbound stage
// lists no experiment runs: auth+audit over a raw channel, and all six
// sublayers stacked on pex (rawAuditCell, sixLayerCell).
// In the parole cell every rejoining holder has quarantined only entity 3,
// so no two expired paroles of one holder re-arm at one tick.
var traceDigestCells = []struct {
	name string
	run  func(cfg Config) *core.Trace
}{
	{"E21 storm+crash adaptive", func(cfg Config) *core.Trace {
		ncfg := node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1, Reliable: e21Adaptive}
		w, _, _ := stormCell(ncfg, cycleScript(16), e21Plan("storm+crash", 1), digestEcho(), cfg.horizon(3000),
			otq.CheckOptions{BridgeRecoveries: true}, nil)
		return w.Trace
	}},
	{"E22 byz-storm auth", func(cfg Config) *core.Trace {
		_, _, tr, _, _ := e22Run(cfg, digestEcho(), "byz-storm", 1, true)
		return tr
	}},
	{"E23 equiv+forge audit", func(cfg Config) *core.Trace {
		return e23Run(cfg, digestEcho(), "equiv+forge", 1, true).tr
	}},
	{"E24 pull ttl=2", func(cfg Config) *core.Trace { return e24Run(cfg, e24Wave(), 1, e24Arms[2]).tr }},
	{"E24 chaff pinned r=12", func(cfg Config) *core.Trace { return e24Run(cfg, e24Wave(), 1, e24Arms[5]).tr }},
	{"E25 session", func(cfg Config) *core.Trace { return e25Run(cfg, e24Wave(), 1, e25Arms[0]).tr }},
	{"E25 durable reset", func(cfg Config) *core.Trace { return e25Run(cfg, e24Wave(), 1, e25Arms[2]).tr }},
	{"E26 flip-mid-run", func(cfg Config) *core.Trace { return e26Run(cfg, e24Wave(), 1, e26Arms[2]).tr }},
	{"E26 reconfig-storm", func(cfg Config) *core.Trace { return e26Run(cfg, e24Wave(), 1, e26Arms[3]).tr }},
	{"E27 defended n=64", func(cfg Config) *core.Trace { return e27World(cfg, 1, 64, e27Arms[2]).Trace }},
	{"crash under auth+audit", func(cfg Config) *core.Trace {
		ncfg := node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: 1,
			Reliable: e21Reliable,
			Auth:     node.AuthConfig{Enabled: true, Parole: e23Parole},
			Audit:    node.AuditConfig{Enabled: true, GossipBudget: 32, Pull: true},
		}
		pl := mustPlan("equiv:nodes=3,peers=2+4,p=1;corrupt:nodes=7,p=0.25;crash:nodes=4+12,recover=50@60;seed=9")
		w, _, _ := stormCell(ncfg, chordScript(16), pl, digestEcho(), cfg.horizon(3000),
			otq.CheckOptions{BridgeRecoveries: true}, nil)
		return w.Trace
	}},
	{"durable rejoin past parole", func(cfg Config) *core.Trace {
		ncfg := node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: 1,
			Reliable: e21Reliable,
			Auth:     node.AuthConfig{Enabled: true, Parole: 150},
			Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
			Identity: node.IdentityConfig{Durable: true},
		}
		w, _, _ := stormCell(ncfg, chordScript(16), e25Plan(1, e25Arms[1]), e24Wave(), e25Horizon(cfg),
			otq.CheckOptions{BridgeRejoins: true}, nil)
		return w.Trace
	}},
	{"all stack knobs in one round", func(cfg Config) *core.Trace { return allKnobsCell(cfg).Trace }},
	{"E28 pex churn n=64", func(Config) *core.Trace {
		const n = 64
		return Execute(Scenario{
			Seed:    1,
			Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
			Churn: churn.Config{
				InitialPopulation: n,
				Immortal:          true,
				ArrivalRate:       0.5,
				Session:           churn.ExpSessions(40),
				RejoinProb:        0.3,
				Downtime:          churn.FixedSessions(8),
			},
			Script: func(w *node.World, e *sim.Engine) {
				e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
			},
			MinLatency: 1, MaxLatency: 2,
			Pex:     pex.Config{Enabled: true, SampleEvery: 40},
			Horizon: 160,
		}).Trace
	}},
	{"pex partitioner rand", func(Config) *core.Trace {
		adv := &adversary.Partitioner{Victim: 5, CutAt: 50, HealAt: 90}
		return pexDigestCell(pex.Config{Policy: pex.PolicyRand}, nil, func(w *node.World) { adv.Attach(w) })
	}},
	{"pex rejoin+crash faults tail", func(Config) *core.Trace {
		pl := mustPlan("rejoin:nodes=3+7+11+15+19,down=6@40;crash:nodes=9+23,recover=20@60;rejoin:nodes=2+5+8,down=3@110;seed=11")
		return pexDigestCell(pex.Config{Policy: pex.PolicyTail}, pl, nil)
	}},
	{"pex view=1 contacts=2 head", func(Config) *core.Trace {
		return pexDigestCell(pex.Config{Policy: pex.PolicyHead, ViewSize: 1}, nil, nil)
	}},
	{"random-k(1) churn n=1000", func(Config) *core.Trace { return randomKDigestCell(1) }},
	{"random-k(4) churn n=1000", func(Config) *core.Trace { return randomKDigestCell(4) }},
	{"auth+audit raw channel", func(cfg Config) *core.Trace { return rawAuditCell(cfg).Trace }},
	{"six layers on pex", func(Config) *core.Trace { return sixLayerCell().Trace }},
}

// rawAuditCell is the chordal 16-ring under auth and audit (40-tick hold)
// WITHOUT the reliable sublayer, an equivocator and a corrupting sender:
// every other security cell runs over reliable, so this is the one inbound
// path with no ack or dedup stage, where the anti-replay window is the
// only duplicate filter and a rejected copy is never retransmitted.
func rawAuditCell(cfg Config) *node.World {
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 1,
		Auth:  node.AuthConfig{Enabled: true, Parole: e23Parole},
		Audit: node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
	}
	pl := mustPlan("equiv:nodes=3,peers=2+4,p=1;corrupt:nodes=7,p=0.25;seed=9")
	w, _, _ := stormCell(ncfg, chordScript(16), pl, digestEcho(), cfg.horizon(3000), otq.CheckOptions{}, nil)
	return w
}

// sixLayerCell stacks every sublayer in one world — reliable, auth, audit
// with its hold, durable identity, reconfiguration and pex with the view
// audit — on a manual overlay whose views are seeded from a ring, under
// rejoining churn, a corrupting sender and one reconfiguration round, with
// the echo wave running over the links pex maintains. No other cell runs
// pex under the security layers' stages.
func sixLayerCell() RunResult {
	const n = 24
	return Execute(Scenario{
		Seed:    1,
		Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
		Churn: churn.Config{
			InitialPopulation: n,
			Immortal:          true,
			ArrivalRate:       0.2,
			Session:           churn.ExpSessions(40),
			RejoinProb:        0.5,
			Downtime:          churn.FixedSessions(8),
		},
		Script: func(w *node.World, e *sim.Engine) {
			e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
		},
		Protocol:   func() otq.Protocol { return digestEcho() },
		QueryAt:    25,
		Faults:     mustPlan("corrupt:nodes=5,p=0.25;reconfig:nodes=1,rotate=1,retain=12@80;seed=33"),
		MinLatency: 1, MaxLatency: 2,
		Reliable: e21Reliable,
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40},
		Identity: node.IdentityConfig{Durable: true},
		Reconfig: node.ReconfigConfig{Enabled: true},
		Pex:      pex.Config{Enabled: true, SampleEvery: 40, Audit: pex.ViewAuditConfig{Enabled: true, KeySeed: 0x27}},
		Horizon:  300,
	})
}

// TestStackCellsDoWork: the raw-channel and six-layer digest cells pin
// their stage lists only if every layer in them actually handles traffic.
func TestStackCellsDoWork(t *testing.T) {
	w := rawAuditCell(Config{Quick: true})
	if au, ad := w.AuthTotals(), w.AuditTotals(); au.Accepted == 0 || au.RejectedCorrupt == 0 || ad.ReceiptsSent == 0 {
		t.Errorf("raw-channel cell: auth %+v, audit %+v; want accepted, rejected-corrupt and receipts > 0", au, ad)
	}
	if rel := w.ReliableTotals(); rel != (node.ReliableCounters{}) {
		t.Errorf("raw-channel cell: reliable totals %+v, want none", rel)
	}
	res := sixLayerCell()
	switch {
	case res.Reliable.Acked == 0:
		t.Errorf("six-layer cell: reliable %+v, want acks", res.Reliable)
	case res.Auth.Accepted == 0 || res.Auth.RejectedCorrupt == 0:
		t.Errorf("six-layer cell: auth %+v, want accepted and rejected-corrupt copies", res.Auth)
	case res.Audit.ReceiptsSent == 0:
		t.Errorf("six-layer cell: audit %+v, want receipts", res.Audit)
	case res.Reconfig.Committed == 0:
		t.Errorf("six-layer cell: reconfig %+v, want a commit", res.Reconfig)
	case res.Pex.Exchanges == 0:
		t.Errorf("six-layer cell: pex %+v, want exchanges", res.Pex)
	case res.Identity.Saves == 0:
		t.Errorf("six-layer cell: identity %+v, want durable saves", res.Identity)
	}
}

// randomKDigestCell is a 1 000-entity random-k world with no query, run
// to t=120 under churn that takes founders too: every join shuffles the
// whole member list, and leavers isolate neighbours whose rescue runs
// RemoveNode's one-target pick (TestRandomKDigestCellsRescue).
func randomKDigestCell(k int) *core.Trace {
	return Execute(Scenario{
		Seed:    1,
		Overlay: func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, k) },
		Churn: churn.Config{
			InitialPopulation: 1000,
			ArrivalRate:       4,
			Session:           churn.ExpSessions(150),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		MinLatency: 1, MaxLatency: 2,
		Horizon: 120,
	}).Trace
}

// TestRandomKDigestCellsRescue: the random-k digest cells pin the rescue
// draws only if a leave actually isolates a neighbour. A rescue is the
// one edge change that comes up right after a leaver's edges went down
// (a join reports only ups).
func TestRandomKDigestCellsRescue(t *testing.T) {
	for _, k := range []int{1, 4} {
		rescues := 0
		var prev core.TraceEventKind
		randomKDigestCell(k).Replay(func(ev core.TraceEvent) {
			if ev.Kind == core.TEdgeUp && prev == core.TEdgeDown {
				rescues++
			}
			prev = ev.Kind
		})
		if rescues == 0 {
			t.Errorf("random-k(%d) cell: no leave isolated a neighbour", k)
		}
		t.Logf("random-k(%d) cell: %d rescues", k, rescues)
	}
}

// pexDigestCell is a 32-entity pex world on the manual overlay, views
// seeded from the ring at t=1, under light rejoining churn plus the given
// fault plan and script, run to t=160.
func pexDigestCell(cfg pex.Config, pl *fault.Plan, script func(w *node.World)) *core.Trace {
	const n = 32
	cfg.Enabled, cfg.SampleEvery = true, 40
	return Execute(Scenario{
		Seed:    1,
		Overlay: func(uint64) topology.Overlay { return topology.NewManual() },
		Churn: churn.Config{
			InitialPopulation: n,
			Immortal:          true,
			ArrivalRate:       0.3,
			Session:           churn.ExpSessions(40),
			RejoinProb:        0.3,
			Downtime:          churn.FixedSessions(8),
		},
		Script: func(w *node.World, e *sim.Engine) {
			e.At(1, func() { w.PexSeedViews(topology.BuildRing(n)) })
			if script != nil {
				script(w)
			}
		},
		Faults:     pl,
		MinLatency: 1, MaxLatency: 2,
		Pex:     cfg,
		Horizon: 160,
	}).Trace
}

// allKnobsCell is E26's chordal 16-ring under audit pull, the
// equivocator and the shared rejoin schedule, with one reconfiguration
// round at t=150 — before the departures at 200 — that flips every
// epoch-governed knob at once: it rotates the keys, turns on the adaptive
// RTO and durable identity, tightens Retain to 12 and raises the pull
// fanout to 3. The departures then save identity records and the
// rejoins restore them under the new epoch's durability alone (genesis
// is session-keyed).
func allKnobsCell(cfg Config) *node.World {
	ncfg := node.Config{
		MinLatency: 1, MaxLatency: 2, LossRate: 0.02, Seed: 1,
		Reliable: e21Reliable,
		Auth:     node.AuthConfig{Enabled: true},
		Audit:    node.AuditConfig{Enabled: true, GossipInterval: 4, GossipBudget: 32, HoldFor: 40, Pull: true},
		Reconfig: node.ReconfigConfig{Enabled: true},
	}
	pl := mustPlan(fmt.Sprintf("equiv:nodes=%d,peers=2+4,p=1@0-%d;rejoin:nodes=%d+%d+%d,down=%d@%d;"+
		"reconfig:nodes=1,count=1,rotate=1,adaptive=1,durable=1,retain=12,fanout=3@150;seed=%d",
		e26Byz, e26LeaveAt, e26Byz, e26Honest[0], e26Honest[1], e26Down, e26LeaveAt, 1^0x26))
	w, _, _ := stormCell(ncfg, chordScript(16), pl, digestEcho(), e26Horizon(cfg),
		otq.CheckOptions{BridgeRejoins: true}, nil)
	return w
}

// TestAllKnobsCellReachesEveryRead: the all-knobs digest cell pins the
// per-epoch reads only if the run actually takes them — the round
// commits, durable departures save and rejoins restore, pull digests go
// out and the tightened cap evicts.
func TestAllKnobsCellReachesEveryRead(t *testing.T) {
	w := allKnobsCell(Config{Quick: true})
	rc, id, au := w.ReconfigTotals(), w.IdentityTotals(), w.AuditTotals()
	if rc.Committed < 1 {
		t.Errorf("reconfig totals %+v: the round never committed", rc)
	}
	if id.Saves == 0 || id.Restores == 0 {
		t.Errorf("identity totals %+v: want durable saves and restores", id)
	}
	if au.PullsSent == 0 || au.Evicted == 0 {
		t.Errorf("audit totals: %d pulls sent, %d evicted; want both > 0", au.PullsSent, au.Evicted)
	}
}

func digestEcho() otq.Protocol {
	return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
}

// TestTraceDigests pins the sha256 of the WHOLE encoded trace of each
// cell — every mark, send, drop and delivery in order. bench/golden.json
// hashes counters only; this is what notices a sublayer refactor that
// keeps the totals and reorders the events.
func TestTraceDigests(t *testing.T) {
	got := make(map[string]string, len(traceDigestCells))
	for _, c := range traceDigestCells {
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, c.run(Config{Quick: true})); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[c.name] = hex.EncodeToString(sum[:])
	}
	if *updateDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceDigestPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(traceDigestPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the table has %d", traceDigestPath, len(want), len(got))
	}
	for _, c := range traceDigestCells {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: trace digest %s, pinned %s", c.name, got[c.name], want[c.name])
		}
	}
}
