package fault

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
)

// TestRejoinParseRoundTrip: the churn clause survives the canonical
// String form, and its malformed spellings are rejected with messages
// naming the offending knob.
func TestRejoinParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"rejoin:nodes=3,down=60@400-",
		"rejoin:nodes=3+9,down=40,reset=1@400-500",
		"rejoin:nodes=3,down=40,sybil=1003@200-",
	} {
		pl := mustParse(t, spec)
		if got := pl.String(); got != spec {
			t.Fatalf("String(%q) = %q", spec, got)
		}
	}
	for _, bad := range []struct{ spec, want string }{
		{"rejoin:down=60", "victims"},
		{"rejoin:nodes=3", "down"},
		{"rejoin:nodes=3,down=-1", "down"},
		{"rejoin:nodes=3,down=60,sybil=-5", "sybil"},
		{"rejoin:nodes=3,down=60,reset=1,sybil=100", "reset"},
		{"rejoin:nodes=3,down=60,p=1", "not valid"},
	} {
		if _, err := Parse(bad.spec); err == nil {
			t.Errorf("%q parsed without error", bad.spec)
		} else if want := bad.want; !contains(err.Error(), want) {
			t.Errorf("%q error %q does not mention %q", bad.spec, err, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRejoinClauseLifecycle: the clause takes its victim down at From and
// brings it back Down ticks later under the same identity, flanked by the
// injection mark and the runtime's own rejoin mark.
func TestRejoinClauseLifecycle(t *testing.T) {
	pl := mustParse(t, "rejoin:nodes=3,down=30@20")
	w, _ := runByzPlan(t, pl, node.Config{Seed: 9}, 100)
	if w.Proc(3) == nil {
		t.Fatal("victim never came back")
	}
	if n := countTraceMarks(w.Trace, MarkRejoin); n != 1 {
		t.Fatalf("%d injection marks, want 1", n)
	}
	if at, ok := w.Trace.FirstMark(core.MarkRejoin); !ok || at != 50 {
		t.Fatalf("runtime rejoin mark at %d (ok=%v), want exactly 50", at, ok)
	}
	// The bridged view reads the churn gap as one continuous session.
	ivs := w.Trace.SessionsBridgingRejoin()[3]
	if len(ivs) != 1 || ivs[0].From != 0 {
		t.Fatalf("bridged sessions %v, want one interval from 0", ivs)
	}
	if plain := w.Trace.Sessions()[3]; len(plain) != 2 {
		t.Fatalf("unbridged sessions %v, want the gap visible", plain)
	}
}

// TestRejoinClauseSybil: the control arm comes back under a fresh
// identity — the old one never returns, the new one is a first arrival
// (no runtime rejoin mark anywhere).
func TestRejoinClauseSybil(t *testing.T) {
	pl := mustParse(t, "rejoin:nodes=3,down=30,sybil=103@20")
	w, _ := runByzPlan(t, pl, node.Config{Seed: 9}, 100)
	if w.Proc(3) != nil {
		t.Fatal("sybil arm resurrected the old identity")
	}
	if w.Proc(103) == nil {
		t.Fatal("sybil identity never joined")
	}
	if n := countTraceMarks(w.Trace, core.MarkRejoin); n != 0 {
		t.Fatalf("%d runtime rejoin marks, want 0 for a fresh identity", n)
	}
	// The fresh identity must be talking (it re-linked to the victim's old
	// neighborhood).
	if got := len(w.Overlay.Graph().Neighbors(103)); got == 0 {
		t.Fatal("sybil identity joined with no edges")
	}
}

// TestRejoinClauseReset: reset=1 sheds the victim's durable identity
// record between leave and rejoin, so nothing is restored — the
// laundering attempt the durable arm of E25 measures (and defeats: peers
// keep their windows regardless).
func TestRejoinClauseReset(t *testing.T) {
	run := func(spec string) node.IdentityCounters {
		pl := mustParse(t, spec)
		w, _ := runByzPlan(t, pl, node.Config{
			Seed:     9,
			Auth:     node.AuthConfig{Enabled: true},
			Identity: node.IdentityConfig{Durable: true},
		}, 100)
		return w.IdentityTotals()
	}
	clean := run("rejoin:nodes=3,down=30@20")
	if clean.Saves != 1 || clean.Restores != 1 {
		t.Fatalf("clean rejoin totals %+v, want 1 save and 1 restore", clean)
	}
	reset := run("rejoin:nodes=3,down=30,reset=1@20")
	if reset.Saves != 1 || reset.Restores != 0 {
		t.Fatalf("reset rejoin totals %+v, want the saved record shed", reset)
	}
}

// TestColludeDropPullSilencesAntiEntropy: with droppull=1 the colluder's
// own pull digests and responses die on the wire (toward victims too) —
// the uncooperative-relay arm of the storm experiment — while the honest
// victims' pull traffic still flows and the conviction still lands via
// the paths that don't route through the colluder.
func TestColludeDropPullSilencesAntiEntropy(t *testing.T) {
	run := func(spec string) (colluderPulls, honestPulls int, convicted bool) {
		pl := mustParse(t, spec)
		cfg := node.Config{
			Seed: 9,
			Auth: node.AuthConfig{Enabled: true},
			Audit: node.AuditConfig{
				Enabled: true, GossipInterval: 4, HoldFor: 8,
				Pull: true, PullInterval: 8, PullBudget: 64,
			},
		}
		w, _ := runByzPlan(t, pl, cfg, 200)
		for _, ev := range w.Trace.Events() {
			if ev.Kind == core.TDeliver &&
				(ev.Tag == node.AuditPullTag || ev.Tag == node.AuditPullRespTag) {
				if ev.Q == graph.NodeID(1) {
					colluderPulls++
				} else {
					honestPulls++
				}
			}
		}
		_, convicted = w.Trace.FirstMark(core.MarkProvenEquivocator)
		return colluderPulls, honestPulls, convicted
	}
	colluderPulls, honestPulls, convicted := run("collude:nodes=1,peers=2+3,groups=2,p=1;seed=6")
	if colluderPulls == 0 {
		t.Fatal("baseline colluder sent no pull traffic to compare against")
	}
	if honestPulls == 0 || !convicted {
		t.Fatalf("baseline run broken: honestPulls=%d convicted=%v", honestPulls, convicted)
	}
	colluderPulls, honestPulls, convicted = run("collude:nodes=1,peers=2+3,groups=2,p=1,droppull=1;seed=6")
	if colluderPulls != 0 {
		t.Fatalf("droppull colluder still delivered %d pull messages", colluderPulls)
	}
	if honestPulls == 0 {
		t.Fatal("droppull silenced the honest victims' pull traffic too")
	}
	if !convicted {
		t.Fatal("droppull should not shield the colluder from direct-witness conviction")
	}
}

// TestCrashRejoinTraceRoundTrip: a real run's trace under crash/recover
// and rejoin faults survives EncodeTrace/DecodeTrace, including the
// edge events that name a crashed entity whose edges linger.
func TestCrashRejoinTraceRoundTrip(t *testing.T) {
	pl := mustParse(t, "crash:nodes=4,recover=30@20;rejoin:nodes=3,down=30@40")
	w, _ := runByzPlan(t, pl, node.Config{Seed: 9}, 150)
	for _, mark := range []string{core.MarkCrash, core.MarkRecover, core.MarkRejoin} {
		if _, ok := w.Trace.FirstMark(mark); !ok {
			t.Fatalf("no %q mark: the plan did not fire", mark)
		}
	}
	events := w.Trace.Events()
	present, lingering := map[graph.NodeID]bool{}, 0
	for _, ev := range events {
		switch ev.Kind {
		case core.TJoin:
			present[ev.P] = true
		case core.TLeave:
			delete(present, ev.P)
		case core.TEdgeUp, core.TEdgeDown:
			if !present[ev.P] || !present[ev.Q] {
				lingering++
			}
		}
	}
	if lingering == 0 {
		t.Fatal("no edge event names an absent entity; the run does not exercise lingering edges")
	}
	var buf bytes.Buffer
	if err := core.EncodeTrace(&buf, w.Trace); err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeTrace(&buf)
	if err != nil {
		t.Fatalf("decoding a recorded run: %v", err)
	}
	if back.End() != w.Trace.End() || !slices.Equal(back.Events(), events) {
		t.Fatal("round trip changed the trace")
	}
}
