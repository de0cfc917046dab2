package exp

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// e25Honest are the honest churners: they ride the same rejoin schedule
// as the attacker, and the durable arm must charge them nothing for it.
var e25Honest = []graph.NodeID{6, 12}

// TestE25PlansParse: every arm's storm spec parses and validates, the
// attack clause carries the arm's variant, and the honest churners ride
// a separate clause with neither reset nor sybil.
func TestE25PlansParse(t *testing.T) {
	for _, arm := range e25Arms {
		pl := e25Plan(1, arm)
		if err := pl.Validate(); err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if len(pl.Clauses) != 3 {
			t.Fatalf("%s: %d clauses, want equiv + attacker rejoin + honest rejoin", arm.name, len(pl.Clauses))
		}
		attack, honest := pl.Clauses[1], pl.Clauses[2]
		if len(attack.Nodes) != 1 || attack.Nodes[0] != e25Byz {
			t.Fatalf("%s: attack clause victims %v, want %d", arm.name, attack.Nodes, e25Byz)
		}
		if attack.Reset != arm.reset || (attack.Sybil != 0) != arm.sybil {
			t.Fatalf("%s: attack clause variant lost: %+v", arm.name, attack)
		}
		if honest.Reset || honest.Sybil != 0 || len(honest.Nodes) != len(e25Honest) {
			t.Fatalf("%s: honest churner clause contaminated: %+v", arm.name, honest)
		}
	}
}

// TestE25Deterministic: one durable-arm cell under a fixed seed replays
// the byte-identical trace — the rejoin scheduling, identity save and
// restore, and re-link order all come from seeded streams and sorted
// iteration.
func TestE25Deterministic(t *testing.T) {
	arm := e25Arms[1] // durable
	encode := func() []byte {
		r := e25Run(Config{Quick: true}, e24Wave(), 3, arm)
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, r.tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical seed produced different E25 traces")
	}
}

// TestE25DurableIdentityDefeatsLaundering is the tentpole's acceptance
// gate. On the same seeds: the session arm launders standing convictions
// through Leave/Join and forces the network to re-convict after the
// return; the durable arm wipes nothing, needs zero re-convictions, and
// restores every churner's record; the reset arm sheds the attacker's
// record without shaking a single conviction out of its peers; and no
// arm ever quarantines an honest entity — the churners ride the same
// schedule for free.
func TestE25DurableIdentityDefeatsLaundering(t *testing.T) {
	offenders := map[graph.NodeID]bool{e25Byz: true}
	for s := 1; s <= 2; s++ {
		seed := uint64(s)
		session := e25Run(Config{Quick: true}, e24Wave(), seed, e25Arms[0])
		if session.ident.QuarantinesLaundered == 0 {
			t.Errorf("seed %d: session rejoin laundered nothing; the attack fizzled", s)
		}
		if session.ident.SessionResets != 3 {
			t.Errorf("seed %d: %d session resets, want one per churner", s, session.ident.SessionResets)
		}
		if session.requars == 0 {
			t.Errorf("seed %d: session arm needed no re-convictions — laundering cost nothing to repair?", s)
		}
		if session.ident.Saves != 0 || session.ident.Restores != 0 {
			t.Errorf("seed %d: session arm touched the stable store: %+v", s, session.ident)
		}

		durable := e25Run(Config{Quick: true}, e24Wave(), seed, e25Arms[1])
		if durable.ident.QuarantinesLaundered != 0 || durable.ident.SessionResets != 0 {
			t.Errorf("seed %d: durable arm laundered: %+v", s, durable.ident)
		}
		if durable.requars != 0 {
			t.Errorf("seed %d: durable arm re-convicted %d times; convictions should carry", s, durable.requars)
		}
		if durable.quarKept == 0 {
			t.Errorf("seed %d: no standing quarantine survived to the horizon", s)
		}
		if durable.ident.Saves != 3 || durable.ident.Restores != 3 {
			t.Errorf("seed %d: durable arm save/restore %+v, want 3/3", s, durable.ident)
		}
		if !durable.out.ValidModuloProven() {
			t.Errorf("seed %d: durable arm lost validity: %+v", s, durable.out)
		}

		reset := e25Run(Config{Quick: true}, e24Wave(), seed, e25Arms[2])
		if reset.ident.Restores != 2 {
			t.Errorf("seed %d: reset arm restored %d records, want only the 2 honest churners", s, reset.ident.Restores)
		}
		if reset.requars != 0 || reset.quarKept == 0 {
			t.Errorf("seed %d: shedding the attacker's own record shook its peers' convictions: requars=%d kept=%d",
				s, reset.requars, reset.quarKept)
		}

		for _, r := range []e25Result{session, durable, reset} {
			if n := len(e23FalseLinks(r.quars, offenders)); n != 0 {
				t.Errorf("seed %d: %d honest links quarantined; churn must not frame the honest churners", s, n)
			}
		}
	}
}

// TestE25SybilControl: the fresh-identity return is durable identity's
// documented boundary — the old name never comes back, the new name
// arrives with no history and no convictions, and nothing in the
// identity layer fires.
func TestE25SybilControl(t *testing.T) {
	r := e25Run(Config{Quick: true}, e24Wave(), 1, e25Arms[3])
	if r.ident.Restores != 2 {
		t.Fatalf("sybil arm restored %d records, want only the honest churners'", r.ident.Restores)
	}
	if r.requars != 0 {
		t.Fatalf("sybil arm re-convicted the departed identity %d times", r.requars)
	}
	for _, ev := range r.quars {
		if ev.Offender == e25Sybil {
			t.Fatalf("fresh identity %d was quarantined with no offense: %+v", e25Sybil, ev)
		}
	}
	// The honest churners' returns are rejoins; the sybil's must not be.
	for _, ev := range r.tr.Events() {
		if ev.Kind == core.TMark && ev.Tag == core.MarkRejoin &&
			(ev.P == e25Byz || ev.P == e25Sybil) {
			t.Fatalf("sybil return read as a rejoin at entity %d", ev.P)
		}
	}
}
