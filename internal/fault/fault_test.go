package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// chatter sends a ping to every neighbor each interval — steady traffic
// for the channel clauses to chew on.
type chatter struct{ interval sim.Time }

func (c *chatter) Init(p *node.Proc) { c.tick(p) }
func (c *chatter) tick(p *node.Proc) {
	for _, u := range p.Neighbors() {
		p.Send(u, "ping", nil)
	}
	p.After(c.interval, func() { c.tick(p) })
}
func (c *chatter) Receive(*node.Proc, node.Message) {}

// runPlan attaches the plan to a fresh 4-node chattering mesh BEFORE any
// entity joins (joins send immediately, and pre-attach sends would bypass
// the hook), runs it to the horizon and returns the closed world.
func runPlan(t *testing.T, plan *Plan, horizon sim.Time) *node.World {
	t.Helper()
	e := sim.New()
	w := node.NewWorld(e, topology.NewMesh(), func(graph.NodeID) node.Behavior {
		return &chatter{interval: 5}
	}, node.Config{Seed: 7})
	stop := plan.Attach(w)
	for i := 1; i <= 4; i++ {
		w.Join(graph.NodeID(i))
	}
	w.Engine.RunUntil(horizon)
	stop()
	w.Close()
	return w
}

// TestPlanDeterminism is the acceptance gate: the same seed and the same
// plan must replay the identical fault sequence — asserted on the
// byte-identical encoded trace of two independent runs.
func TestPlanDeterminism(t *testing.T) {
	plan, err := Parse("dup:p=0.3@5-60;burst:pgb=0.2,pbg=0.3,lossbad=0.8;reorder:p=0.25,window=6@10-80;spike:nodes=2,delay=4@20-70;blackout:pair=1>3@30-50;crash:nodes=4,recover=25@40;seed=99")
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		w := runPlan(t, plan, 120)
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, w.Trace); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := encode()
	// Reset the plan's runtime state implicitly: Attach builds a fresh
	// engine per call, so a second run must reproduce run one exactly.
	b := encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same plan + seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TestDeterminismSeedSensitivity guards against the opposite failure: a
// plan whose randomness is secretly ignored.
func TestDeterminismSeedSensitivity(t *testing.T) {
	mk := func(seed string) []byte {
		plan, err := Parse("burst:pgb=0.2,pbg=0.3,lossbad=0.8;" + seed)
		if err != nil {
			t.Fatal(err)
		}
		w := runPlan(t, plan, 120)
		var buf bytes.Buffer
		if err := core.EncodeTrace(&buf, w.Trace); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if bytes.Equal(mk("seed=1"), mk("seed=2")) {
		t.Fatal("different plan seeds produced identical traces")
	}
}

func TestBlackoutIsDirected(t *testing.T) {
	plan := &Plan{Clauses: []Clause{{Kind: KindBlackout, Pair: &[2]graph.NodeID{1, 2}}}}
	w := runPlan(t, plan, 40)
	// Deliver events record P = receiver, Q = sender.
	oneToTwo, twoToOne := 0, 0
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TDeliver && ev.Tag == "ping" {
			if ev.Q == 1 && ev.P == 2 {
				oneToTwo++
			}
			if ev.Q == 2 && ev.P == 1 {
				twoToOne++
			}
		}
	}
	if oneToTwo != 0 {
		t.Fatalf("blackout 1>2 leaked %d deliveries", oneToTwo)
	}
	if twoToOne == 0 {
		t.Fatal("reverse direction 2>1 should be unaffected")
	}
	marks := 0
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TMark && ev.Tag == MarkBlackout {
			marks++
		}
	}
	if marks == 0 {
		t.Fatal("blackout drops not marked in trace")
	}
}

func TestDuplicateDeliversExtraCopies(t *testing.T) {
	// Two nodes, no loss: every ping is duplicated once, so deliveries
	// must be exactly twice the sends.
	e := sim.New()
	w := node.NewWorld(e, topology.NewMesh(), func(graph.NodeID) node.Behavior {
		return &chatter{interval: 5}
	}, node.Config{Seed: 3})
	plan := &Plan{Clauses: []Clause{{Kind: KindDuplicate, P: 1, Count: 1}}}
	stop := plan.Attach(w)
	w.Join(1)
	w.Join(2)
	e.RunUntil(50)
	stop()
	w.Close()
	// Sends at the horizon itself have copies still in flight; count only
	// the sends whose deliveries (latency 1) fit inside the run.
	landed, delivered := 0, 0
	for _, ev := range w.Trace.Events() {
		switch {
		case ev.Kind == core.TSend && ev.At < 50:
			landed++
		case ev.Kind == core.TDeliver:
			delivered++
		}
	}
	if landed == 0 || delivered != 2*landed {
		t.Fatalf("dup p=1 count=1: %d landed sends, %d deliveries (want exactly 2x)", landed, delivered)
	}
}

func TestSpikeDelaysVictimTraffic(t *testing.T) {
	// Latency is the [1,1] default; a spike of 10 on node 2 makes every
	// delivery touching node 2 arrive 11 ticks after the send.
	plan := &Plan{Clauses: []Clause{{Kind: KindSpike, Nodes: []graph.NodeID{2}, Delay: 10}}}
	w := runPlan(t, plan, 60)
	// Several sends per pair are in flight at once; with a constant
	// per-pair latency deliveries come in send order, so a FIFO queue of
	// send times per pair recovers each delivery's latency.
	sendAt := map[[2]graph.NodeID][]core.Time{}
	checked := 0
	for _, ev := range w.Trace.Events() {
		if ev.Tag != "ping" {
			continue
		}
		switch ev.Kind {
		case core.TSend: // P = sender, Q = receiver
			pair := [2]graph.NodeID{ev.P, ev.Q}
			sendAt[pair] = append(sendAt[pair], ev.At)
		case core.TDeliver: // P = receiver, Q = sender
			pair := [2]graph.NodeID{ev.Q, ev.P}
			q := sendAt[pair]
			if len(q) == 0 {
				t.Fatalf("delivery %d->%d without a matching send", ev.P, ev.Q)
			}
			lat := ev.At - q[0]
			sendAt[pair] = q[1:]
			touches2 := ev.P == 2 || ev.Q == 2
			if touches2 && lat != 11 {
				t.Fatalf("spiked delivery %d->%d took %d ticks, want 11", ev.P, ev.Q, lat)
			}
			if !touches2 && lat != 1 {
				t.Fatalf("clean delivery %d->%d took %d ticks, want 1", ev.P, ev.Q, lat)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no deliveries checked")
	}
}

func TestCrashClauseCrashesAndRecovers(t *testing.T) {
	plan := &Plan{Clauses: []Clause{{Kind: KindCrash, From: 20, Nodes: []graph.NodeID{3}, RecoverAfter: 30}}}
	w := runPlan(t, plan, 100)
	if w.Proc(3) == nil {
		t.Fatal("node 3 should be back after recovery")
	}
	var crashAt, recoverAt core.Time = -1, -1
	for _, ev := range w.Trace.Events() {
		if ev.Kind != core.TMark || ev.P != 3 {
			continue
		}
		switch ev.Tag {
		case core.MarkCrash:
			crashAt = ev.At
		case core.MarkRecover:
			recoverAt = ev.At
		}
	}
	if crashAt != 20 || recoverAt != 50 {
		t.Fatalf("crash at %d (want 20), recover at %d (want 50)", crashAt, recoverAt)
	}
	// The recovery gap must be bridged by the recovery-aware session view
	// and visible as a hole in the plain one.
	plain := w.Trace.Sessions()[3]
	bridged := w.Trace.SessionsBridgingRecovery()[3]
	if len(plain) != 2 {
		t.Fatalf("plain sessions of 3 = %v, want a 2-interval gap", plain)
	}
	if len(bridged) != 1 {
		t.Fatalf("bridged sessions of 3 = %v, want one merged interval", bridged)
	}
}

func TestBurstDropsInBadState(t *testing.T) {
	// Always-bad chain (pgb=1, pbg=0, lossbad=1): everything after the
	// first transition is dropped.
	one := 1.0
	plan := &Plan{Clauses: []Clause{{Kind: KindBurst, PGB: 1, PBG: 0, LossBad: &one}}}
	w := runPlan(t, plan, 40)
	ms := w.Trace.Messages("ping")
	if ms.Delivered != 0 {
		t.Fatalf("always-bad burst channel delivered %d messages", ms.Delivered)
	}
	if ms.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestWindowsBound(t *testing.T) {
	// Blackout only inside [10, 20): traffic before and after flows.
	plan := &Plan{Clauses: []Clause{{Kind: KindBlackout, From: 10, To: 20, Pair: &[2]graph.NodeID{1, 2}}}}
	w := runPlan(t, plan, 40)
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TMark && ev.Tag == MarkBlackout {
			if ev.At < 10 || ev.At >= 20 {
				t.Fatalf("blackout fired at %d, outside [10, 20)", ev.At)
			}
		}
	}
	delivered := false
	for _, ev := range w.Trace.Events() {
		// sender 1 -> receiver 2: Deliver records P = receiver.
		if ev.Kind == core.TDeliver && ev.Q == 1 && ev.P == 2 && ev.At < 10 {
			delivered = true
		}
	}
	if !delivered {
		t.Fatal("pre-window traffic 1->2 should be delivered")
	}
}

func TestParseRoundTrip(t *testing.T) {
	const src = "dup:p=0.2,count=2@100-500;burst:pgb=0.05,pbg=0.3,lossbad=0.9;reorder:p=0.1,window=8@50-;spike:nodes=1+2+3,delay=10@200-400;blackout:pair=1>2@100-200;crash:nodes=4,recover=50@250;seed=42"
	pl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Clauses) != 6 || pl.Seed != 42 {
		t.Fatalf("parsed %d clauses, seed %d", len(pl.Clauses), pl.Seed)
	}
	again, err := Parse(pl.String())
	if err != nil {
		t.Fatalf("canonical form did not reparse: %v\n%s", err, pl.String())
	}
	if !reflect.DeepEqual(pl, again) {
		t.Fatalf("round trip changed the plan:\n%s\n%s", pl.String(), again.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"dup",                      // p=0 never fires
		"dup:p=1.5",                // probability out of range
		"reorder:p=0.5",            // missing window
		"spike:nodes=1",            // missing delay
		"blackout",                 // missing pair
		"blackout:pair=3>3",        // self loop
		"crash",                    // no victims
		"crash:nodes=1@30-10",      // empty window
		"frobnicate:p=0.5",         // unknown kind
		"dup:p=0.5,bogus=1",        // unknown parameter
		"burst:pgb=0,lossgood=0",   // burst that can never fire
		"dup:p=NaN",                // NaN probability
		"seed=-3",                  // negative seed
		"crash:nodes=1,recover=-5", // negative recovery delay
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseRejectsOutOfRangeIDs pins that every identity key refuses a
// value outside [0, graph.MaxNodeID] with a message naming the range,
// rather than truncating it to a 32-bit ID, and that a sybil run may not
// count past the largest identity.
func TestParseRejectsOutOfRangeIDs(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{"crash:nodes=2147483648", "outside [0, 2147483647]"},
		{"crash:nodes=1+-1", "outside [0, 2147483647]"},
		{"poison:nodes=4,rate=1,sybils=3,base=-1", "outside [0, 2147483647]"},
		{"poison:nodes=4,rate=1,target=4294967298", "outside [0, 2147483647]"},
		{"blackout:pair=1>4294967296", "outside [0, 2147483647]"},
		{"blackout:pair=-2>1", "outside [0, 2147483647]"},
		{"equiv:nodes=3,peers=2+18446744073709551615,p=1", "value out of range"},
		{"forge:as=2147483648,p=0.1", "outside [0, 2147483647]"},
		{"rejoin:nodes=3,down=60,sybil=9223372036854775807", "outside [0, 2147483647]"},
		{"rejoin:nodes=3+9,down=60,sybil=2147483647", "sybil identities from 2147483647 run outside [0, 2147483647]"},
		{"poison:nodes=4,rate=1,sybils=3,base=2147483646", "sybil identities from 2147483646 run outside [0, 2147483647]"},
	} {
		if _, err := Parse(tc.plan); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
	for _, ok := range []string{
		"crash:nodes=2147483647",
		"rejoin:nodes=3,down=60,sybil=2147483647",
		"poison:nodes=4,rate=1,sybils=2,base=2147483646",
	} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q): %v", ok, err)
		}
	}
}

// DecodeJSON reads a plan in the JSON form its field tags give it and
// validates it.
func DecodeJSON(data []byte) (*Plan, error) {
	var pl Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("fault: %v", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &pl, nil
}

func TestJSONRoundTrip(t *testing.T) {
	pl, err := Parse("burst:pgb=0.05,pbg=0.3,lossbad=0.9@0-300;crash:nodes=2+5,recover=40@100;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl, back) {
		t.Fatalf("JSON round trip changed the plan:\n%s\n%s", pl.String(), back.String())
	}
}

func TestSummary(t *testing.T) {
	pl, err := Parse("burst:pgb=0.1,pbg=0.5;burst:pgb=0.2,pbg=0.5;crash:nodes=1@10")
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Summary(); got != "2 burst + 1 crash" {
		t.Fatalf("Summary = %q", got)
	}
	if got := (&Plan{}).Summary(); got != "no faults" {
		t.Fatalf("empty Summary = %q", got)
	}
}
