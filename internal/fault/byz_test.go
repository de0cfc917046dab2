package fault

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// val is a Tamperable payload: an honest value the adversary perturbs.
type val struct{ V int }

func (v val) Tamper(r *rng.Rand) any { return val{V: v.V + 500 + r.Intn(50)} }

// valChatter sends val{V: 1} to every neighbor each interval and records
// what it receives.
type valChatter struct {
	interval sim.Time
	got      []int
}

func (c *valChatter) Init(p *node.Proc) { c.tick(p) }
func (c *valChatter) tick(p *node.Proc) {
	for _, u := range p.Neighbors() {
		p.Send(u, "val", val{V: 1})
	}
	p.After(c.interval, func() { c.tick(p) })
}
func (c *valChatter) Receive(_ *node.Proc, m node.Message) {
	if m.Tag == "val" {
		c.got = append(c.got, m.Payload.(val).V)
	}
}

// runByzPlan runs the plan on a 4-node mesh of valChatters under the
// given node config and returns the world plus each entity's receiver.
func runByzPlan(t *testing.T, plan *Plan, cfg node.Config, horizon sim.Time) (*node.World, map[graph.NodeID]*valChatter) {
	t.Helper()
	e := sim.New()
	sinks := map[graph.NodeID]*valChatter{}
	w := node.NewWorld(e, topology.NewMesh(), func(id graph.NodeID) node.Behavior {
		c := &valChatter{interval: 5}
		sinks[id] = c
		return c
	}, cfg)
	stop := plan.Attach(w)
	for i := 1; i <= 4; i++ {
		w.Join(graph.NodeID(i))
	}
	w.Engine.RunUntil(horizon)
	stop()
	w.Close()
	return w, sinks
}

func honest(got []int) bool {
	for _, v := range got {
		if v != 1 {
			return false
		}
	}
	return true
}

func mustParse(t *testing.T, s string) *Plan {
	t.Helper()
	pl, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestByzParseRoundTrip: every Byzantine clause survives the canonical
// String form and the JSON form unchanged.
func TestByzParseRoundTrip(t *testing.T) {
	specs := []string{
		"corrupt:p=0.25",
		"corrupt:nodes=3+7,p=0.25@50-",
		"replay:p=0.3,window=12",
		"replay:nodes=2,p=1@10-90",
		"forge:as=5,p=0.3",
		"forge:nodes=7,as=5,p=0.3@5-",
		"equiv:nodes=3,peers=2+5,p=1",
		"corrupt:nodes=1,p=0.5;replay:p=0.2;forge:as=2,p=0.1;equiv:nodes=1,peers=3,p=1;seed=9",
	}
	for _, spec := range specs {
		pl := mustParse(t, spec)
		if got := pl.String(); got != spec {
			t.Fatalf("String(%q) = %q", spec, got)
		}
		data, err := json.Marshal(pl)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("DecodeJSON(%s): %v", data, err)
		}
		if !reflect.DeepEqual(pl, back) {
			t.Fatalf("JSON round-trip of %q changed the plan", spec)
		}
	}
}

// TestByzParseErrors: meaningless Byzantine clauses are rejected.
func TestByzParseErrors(t *testing.T) {
	bad := []string{
		"corrupt:p=0",   // never fires
		"corrupt:p=1.5", // probability out of range
		"replay:p=0.2,window=-3",
		"forge:p=0.5",           // no claimed sender
		"equiv:p=1,peers=2",     // no equivocators
		"equiv:p=1,nodes=3",     // nobody to lie to
		"corrupt:p=0.5,delay=3", // key from the wrong kind
		"equiv:nodes=3,peers=2,p=1,as=4",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted a bad clause", spec)
		}
	}
}

// TestCorruptRejectedByAuth: the DSL-driven corruption is injected (trace
// marks), and the authenticating receivers reject every copy — no
// tampered value ever reaches a behavior.
func TestCorruptRejectedByAuth(t *testing.T) {
	pl := mustParse(t, "corrupt:nodes=1,p=1;seed=3")
	w, sinks := runByzPlan(t, pl, node.Config{
		Seed: 7,
		Auth: node.AuthConfig{Enabled: true},
	}, 100)
	if n := countTraceMarks(w.Trace, MarkCorrupt); n == 0 {
		t.Fatal("no corruption was injected")
	}
	tot := w.AuthTotals()
	if tot.RejectedCorrupt == 0 {
		t.Fatal("auth rejected nothing")
	}
	for id, c := range sinks {
		if !honest(c.got) {
			t.Fatalf("entity %d accepted a tampered value: %v", id, c.got)
		}
	}
}

// TestCorruptAcceptedRaw: the same plan over raw channels — tampered
// values reach the behaviors, which is the harm E22 measures.
func TestCorruptAcceptedRaw(t *testing.T) {
	pl := mustParse(t, "corrupt:nodes=1,p=1;seed=3")
	_, sinks := runByzPlan(t, pl, node.Config{Seed: 7}, 100)
	tampered := false
	for _, c := range sinks {
		if !honest(c.got) {
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("raw channels should have accepted tampered values")
	}
}

// TestForgeBlamesTheScapegoat: forged claims fail verification, and the
// quarantine blames the innocent claimed sender — the framing cost of
// per-neighbor evidence.
func TestForgeBlamesTheScapegoat(t *testing.T) {
	pl := mustParse(t, "forge:nodes=1,as=3,p=1;seed=5")
	w, _ := runByzPlan(t, pl, node.Config{
		Seed: 7,
		Auth: node.AuthConfig{Enabled: true},
	}, 100)
	if n := countTraceMarks(w.Trace, MarkForge); n == 0 {
		t.Fatal("no forgery was injected")
	}
	evs := w.QuarantineEvents()
	if len(evs) == 0 {
		t.Fatal("sustained forgery never tripped a quarantine")
	}
	for _, ev := range evs {
		if ev.Offender != 3 {
			t.Fatalf("quarantine blamed %d, want the scapegoat 3: %v", ev.Offender, evs)
		}
	}
}

// TestReplayRejectedByWindow: without the reliable layer, the anti-replay
// window alone filters the replayed copies.
func TestReplayRejectedByWindow(t *testing.T) {
	pl := mustParse(t, "replay:nodes=1,p=1,window=6;seed=5")
	w, sinks := runByzPlan(t, pl, node.Config{
		Seed: 7,
		Auth: node.AuthConfig{Enabled: true},
	}, 100)
	if n := countTraceMarks(w.Trace, MarkReplay); n == 0 {
		t.Fatal("no replay was injected")
	}
	if tot := w.AuthTotals(); tot.RejectedReplay == 0 {
		t.Fatal("no replayed copy was rejected")
	}
	for id, c := range sinks {
		if !honest(c.got) {
			t.Fatalf("entity %d accepted a tampered value: %v", id, c.got)
		}
	}
}

// TestEquivocationEvadesAuth: the lie is signed by the real sender, so
// authentication accepts it — the listed peers see divergent values while
// everyone else sees honest ones. This is the documented limitation of
// per-pair authentication.
func TestEquivocationEvadesAuth(t *testing.T) {
	pl := mustParse(t, "equiv:nodes=1,peers=2,p=1;seed=5")
	w, sinks := runByzPlan(t, pl, node.Config{
		Seed: 7,
		Auth: node.AuthConfig{Enabled: true},
	}, 100)
	if n := countTraceMarks(w.Trace, MarkEquiv); n == 0 {
		t.Fatal("no equivocation was injected")
	}
	tot := w.AuthTotals()
	if tot.RejectedCorrupt != 0 || tot.RejectedReplay != 0 || tot.Quarantines != 0 {
		t.Fatalf("signed lies must pass verification, got %+v", tot)
	}
	if honest(sinks[2].got) {
		t.Fatal("the lied-to peer 2 should have received divergent values")
	}
	if !honest(sinks[3].got) || !honest(sinks[4].got) {
		t.Fatal("peers outside the equiv list should see honest values")
	}
}

// TestByzDeterminism: a plan mixing all four Byzantine kinds replays the
// byte-identical trace under the same seed (sender hook and channel hook
// share one deterministic stream).
func TestByzDeterminism(t *testing.T) {
	pl := mustParse(t, "corrupt:nodes=1,p=0.4;replay:p=0.2,window=5;forge:nodes=2,as=4,p=0.3;equiv:nodes=3,peers=1+2,p=0.5;seed=77")
	encode := func() []byte {
		w, _ := runByzPlan(t, pl, node.Config{
			Seed: 7,
			Auth: node.AuthConfig{Enabled: true},
		}, 150)
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, w.Trace); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical seed produced different traces")
	}
}

func countTraceMarks(tr *core.Trace, tag string) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == core.TMark && ev.Tag == tag {
			n++
		}
	}
	return n
}
