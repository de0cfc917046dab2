package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/node"
)

// TestReconfigParseRoundTrip: the reconfiguration clause survives the
// canonical String form, and its malformed spellings are rejected with
// messages naming the offending knob.
func TestReconfigParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"reconfig:nodes=1,rotate=1@20-",
		"reconfig:nodes=1+4,every=80,count=4,rotate=1,retain=64@120-",
		"reconfig:adaptive=1,durable=1@200-",
		"reconfig:every=30,count=2,fanout=4@50-",
	} {
		pl := mustParse(t, spec)
		if got := pl.String(); got != spec {
			t.Fatalf("String(%q) = %q", spec, got)
		}
	}
	for _, bad := range []struct{ spec, want string }{
		{"reconfig:nodes=1", "changes nothing"},
		{"reconfig:count=-1,rotate=1", "count"},
		{"reconfig:every=-5,rotate=1", "spacing"},
		{"reconfig:count=3,rotate=1", "every"},
		{"reconfig:retain=-2", "retain"},
		{"reconfig:fanout=-2", "fanout"},
		{"reconfig:rotate=1,p=1", "not valid"},
	} {
		if _, err := Parse(bad.spec); err == nil {
			t.Errorf("%q parsed without error", bad.spec)
		} else if !contains(err.Error(), bad.want) {
			t.Errorf("%q error %q does not mention %q", bad.spec, err, bad.want)
		}
	}
}

// reconfigCfg is the world config the clause tests run under: auth so key
// rotation is observable, the reconfiguration layer on.
func reconfigCfg() node.Config {
	return node.Config{
		Seed:     9,
		Auth:     node.AuthConfig{Enabled: true},
		Reconfig: node.ReconfigConfig{Enabled: true},
	}
}

// TestReconfigClauseDrivesEpoch: a single timed round builds its target
// from the initiator's stack, marks the injection, and commits the epoch
// on every node.
func TestReconfigClauseDrivesEpoch(t *testing.T) {
	pl := mustParse(t, "reconfig:nodes=2,rotate=1,adaptive=1,durable=1@20")
	w, _ := runByzPlan(t, pl, reconfigCfg(), 200)
	if got := w.LatestEpoch(); got != 1 {
		t.Fatalf("latest epoch %d, want 1", got)
	}
	st := w.StackOf(3)
	if st.KeyEpoch != 1 || !st.Adaptive || !st.Durable {
		t.Fatalf("stack after the round %+v, want KeyEpoch 1, Adaptive, Durable", st)
	}
	if n := countTraceMarks(w.Trace, MarkReconfig); n != 1 {
		t.Fatalf("%d injection marks, want 1", n)
	}
	if n := countTraceMarks(w.Trace, core.MarkEpochSwitch); n != 4 {
		t.Fatalf("%d epoch-switch marks, want 4 (every node moves once)", n)
	}
	tot := w.ReconfigTotals()
	if tot.Initiated != 1 || tot.Committed != 1 || tot.BadWire != 0 {
		t.Fatalf("reconfig totals %+v", tot)
	}
}

// TestReconfigStormAlternates: a storm's retain rounds ALTERNATE between
// the clause value and genesis — two rounds land back on a changed value,
// three end on the clause's — and every round commits.
func TestReconfigStormAlternates(t *testing.T) {
	pl := mustParse(t, "reconfig:nodes=1,every=40,count=3,retain=64@20")
	w, _ := runByzPlan(t, pl, reconfigCfg(), 400)
	tot := w.ReconfigTotals()
	if tot.Initiated != 3 || tot.Committed != 3 {
		t.Fatalf("reconfig totals %+v, want 3 initiated and 3 committed", tot)
	}
	if got := w.LatestEpoch(); got != 3 {
		t.Fatalf("latest epoch %d, want 3", got)
	}
	genesis := w.GenesisStack()
	if got := w.StackOf(1).Retain; got != 64 {
		t.Fatalf("retain after 3 alternating rounds = %d, want 64", got)
	}
	// The middle epoch swung back to genesis: epoch 2's stack has the
	// genesis cap, visible through the run's registry via a 2-round rerun.
	pl2 := mustParse(t, "reconfig:nodes=1,every=40,count=2,retain=64@20")
	w2, _ := runByzPlan(t, pl2, reconfigCfg(), 400)
	if got := w2.StackOf(1).Retain; got != genesis.Retain {
		t.Fatalf("retain after 2 alternating rounds = %d, want genesis %d", got, genesis.Retain)
	}
}

// TestReconfigClauseRoundRobinInitiators: with several listed initiators
// the rounds rotate through them; a departed one is skipped for the next
// listed node that is present.
func TestReconfigClauseRoundRobinInitiators(t *testing.T) {
	pl := mustParse(t, "reconfig:nodes=3+4,every=40,count=2,rotate=1@20;crash:nodes=4@30")
	w, _ := runByzPlan(t, pl, reconfigCfg(), 400)
	tot := w.ReconfigTotals()
	if tot.Initiated != 2 || tot.Committed != 2 {
		t.Fatalf("reconfig totals %+v, want both rounds despite the crashed initiator", tot)
	}
	if got := w.StackOf(1).KeyEpoch; got != 2 {
		t.Fatalf("key epoch %d after two rotate rounds, want 2", got)
	}
}

// TestReconfigClauseRequiresLayer: attaching a reconfig clause to a world
// without the reconfiguration layer is a configuration bug and panics at
// attach time, not silently at the first round.
func TestReconfigClauseRequiresLayer(t *testing.T) {
	pl := mustParse(t, "reconfig:rotate=1@20")
	defer func() {
		if recover() == nil {
			t.Fatal("attach to a reconfig-less world did not panic")
		}
	}()
	runByzPlan(t, pl, node.Config{Seed: 9}, 100)
}

// TestReconfigComposesWithRejoin: a key rotation landing while a
// quarantined node churns must neither launder the quarantine nor block
// the commit — the storm composition E26 scales up, pinned here at one
// round. Forgery frames node 3, node 3 churns across the rotation.
func TestReconfigComposesWithRejoin(t *testing.T) {
	pl := mustParse(t, "forge:nodes=1,as=3,p=1@0-25;reconfig:nodes=2,rotate=1@40;rejoin:nodes=3,down=30@30;seed=5")
	cfg := reconfigCfg()
	cfg.Identity = node.IdentityConfig{Durable: true}
	w, _ := runByzPlan(t, pl, cfg, 300)

	evs := w.QuarantineEvents()
	if len(evs) == 0 {
		t.Fatal("forgery never tripped a quarantine before the churn")
	}
	for _, ev := range evs {
		if !w.Quarantined(ev.By, ev.Offender) {
			t.Fatalf("quarantine %d→%d laundered across rotation + churn", ev.By, ev.Offender)
		}
	}
	if tot := w.IdentityTotals(); tot.QuarantinesLaundered != 0 {
		t.Fatalf("identity totals %+v, want zero laundering", tot)
	}
	tot := w.ReconfigTotals()
	if tot.Committed != 1 {
		t.Fatalf("reconfig totals %+v, want the round committed despite churn", tot)
	}
	if got := w.StackOf(3).KeyEpoch; got != 1 {
		t.Fatalf("rejoiner's key epoch %d, want 1 (bootstraps at the committed epoch)", got)
	}
}
