package otq

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// updateDigests re-pins testdata/trace_digests.json from this code:
//
//	go test ./internal/otq -run TestTraceDigests -update
var updateDigests = flag.Bool("update", false, "re-pin testdata/trace_digests.json from this code")

const traceDigestPath = "testdata/trace_digests.json"

// digestProtocols is one fresh value per protocol behaviour the package
// ships. launch hides that ContinuousFlood returns a ContinuousRun and
// the rest a Run; goName is the type name Launch's panics use; crash
// selects the five member behaviours (flood, echo wave, sketch wave, tree
// echo, push-sum) for the crash–recovery world.
var digestProtocols = []struct {
	name, goName string
	crash        bool
	make         func() (node.BehaviorFactory, func(*node.World, graph.NodeID))
}{
	{"flood-ttl", "FloodTTL", true, oneShot(func() Protocol { return &FloodTTL{TTL: 8, MaxLatency: 2} })},
	{"flood-repeat", "RepeatedFlood", false, oneShot(func() Protocol { return &RepeatedFlood{TTL: 8, MaxLatency: 2} })},
	{"expanding-ring", "ExpandingRing", false, oneShot(func() Protocol { return &ExpandingRing{MaxLatency: 2, MaxTTL: 16} })},
	{"continuous-flood", "ContinuousFlood", false, func() (node.BehaviorFactory, func(*node.World, graph.NodeID)) {
		p := &ContinuousFlood{TTL: 8, MaxLatency: 2, MaxEpochs: 6}
		return p.Factory(), func(w *node.World, q graph.NodeID) { p.Launch(w, q) }
	}},
	{"echo-wave", "EchoWave", true, oneShot(func() Protocol { return &EchoWave{} })},
	{"sketch-wave", "SketchWave", true, oneShot(func() Protocol { return &SketchWave{} })},
	{"tree-echo", "TreeEcho", true, oneShot(func() Protocol { return &TreeEcho{} })},
	{"tree-echo detect", "TreeEcho", false, oneShot(func() Protocol { return &TreeEcho{DetectDepartures: true} })},
	{"gossip-push-sum", "GossipPushSum", true, oneShot(func() Protocol { return &GossipPushSum{Seed: 5} })},
}

func oneShot(mk func() Protocol) func() (node.BehaviorFactory, func(*node.World, graph.NodeID)) {
	return func() (node.BehaviorFactory, func(*node.World, graph.NodeID)) {
		p := mk()
		return p.Factory(), func(w *node.World, q graph.NodeID) { p.Launch(w, q) }
	}
}

const digestHorizon = 1500

// digestWorlds run one launch each and return the closed trace.
var digestWorlds = []struct {
	name      string
	crashOnly bool
	run       func(f node.BehaviorFactory, launch func(*node.World, graph.NodeID)) *core.Trace
}{
	{"static ring", false, func(f node.BehaviorFactory, launch func(*node.World, graph.NodeID)) *core.Trace {
		e := sim.New()
		w := node.NewWorld(e, topology.NewManual(), f, node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
		joinCycle(w, 16)
		e.RunUntil(5)
		launch(w, 1)
		e.RunUntil(digestHorizon)
		w.Close()
		return w.Trace
	}},
	{"churned lossy ring", false, func(f node.BehaviorFactory, launch func(*node.World, graph.NodeID)) *core.Trace {
		e := sim.New()
		w := node.NewWorld(e, topology.NewRing(3), f, node.Config{MinLatency: 1, MaxLatency: 2, LossRate: 0.05, Seed: 3})
		w.ApplyChurn(churn.New(3, churn.Config{
			InitialPopulation: 16, Immortal: true,
			ArrivalRate: 0.1, Session: churn.ExpSessions(60),
		}), digestHorizon)
		e.RunUntil(100)
		launch(w, w.Present()[0])
		e.RunUntil(digestHorizon)
		w.Close()
		return w.Trace
	}},
	// The querier's neighbor crashes after the query passed through it and
	// recovers 30 ticks later, over retrying channels: a Recoverable
	// behaviour resumes through Restore, any other through Init — the two
	// leave different traces, so the sketch-wave cell also pins that
	// sketchWaveBehavior is NOT node.Recoverable.
	{"crash-recover", true, func(f node.BehaviorFactory, launch func(*node.World, graph.NodeID)) *core.Trace {
		e := sim.New()
		w := node.NewWorld(e, topology.NewManual(), f, node.Config{
			MinLatency: 1, MaxLatency: 2, Seed: 1,
			Reliable: node.ReliableConfig{Enabled: true, RetransmitAfter: 4, MaxRetries: 10},
		})
		joinCycle(w, 16)
		e.RunUntil(5)
		launch(w, 1)
		e.At(11, func() { w.Crash(2) })
		e.At(41, func() { w.Recover(2) })
		e.RunUntil(digestHorizon)
		w.Close()
		return w.Trace
	}},
}

// TestTraceDigests pins the sha256 of the WHOLE encoded trace — every
// mark, send, drop and delivery in order — of every protocol on a static
// ring, a churned lossy ring, and (for the five member behaviours) a
// crash–recovery of the querier's neighbor. The experiment tables only
// show rounded cells; this is what notices a protocol refactor that
// keeps the answer and moves a message.
func TestTraceDigests(t *testing.T) {
	if _, ok := any(&sketchWaveBehavior{}).(node.Recoverable); ok {
		t.Error("sketchWaveBehavior implements node.Recoverable; E21/E22's crash arms restart it through Init")
	}
	got := map[string]string{}
	var names []string
	for _, wd := range digestWorlds {
		for _, pr := range digestProtocols {
			if wd.crashOnly && !pr.crash {
				continue
			}
			f, launch := pr.make()
			var buf bytes.Buffer
			if err := core.EncodeTrace(&buf, wd.run(f, launch)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			name := wd.name + "/" + pr.name
			names = append(names, name)
			got[name] = hex.EncodeToString(sum[:])
		}
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
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: trace digest %s, pinned %s", name, got[name], want[name])
		}
	}
}
