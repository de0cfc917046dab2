package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/otq"
)

// streamOutcomesPath holds the full Outcome of every streamScenarios
// cell at seeds 1 and 2, written once by the batch judge CheckWith ran
// before it became a replay through otq.StreamChecker. It is read, never
// re-pinned: it holds both feeds to verdicts an independent
// implementation reached.
const streamOutcomesPath = "testdata/stream_outcomes.json"

// streamScenarios are the suite's scenario shapes for the checker
// doubles: every protocol family, churn, loss, crash/rejoin fault plans,
// both bridging notions, and the auth sublayer's quarantine marks.
func streamScenarios(t *testing.T) map[string]func(seed uint64) Scenario {
	mustPlan := func(s string) *fault.Plan {
		plan, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	return map[string]func(seed uint64) Scenario{
		"echo wave under churn": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: ringOverlay,
				Churn: churn.Config{InitialPopulation: 12, Immortal: true,
					ArrivalRate: 0.1, Session: churn.ExpSessions(60)},
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 500}
				},
				MinLatency: 1, MaxLatency: 2,
				QueryAt: 50, Horizon: 800,
			}
		},
		"flood on the mesh": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: meshOverlay,
				Churn:   churn.Config{InitialPopulation: 10, Immortal: true},
				Protocol: func() otq.Protocol {
					return &otq.FloodTTL{TTL: 2, MaxLatency: 2}
				},
				QueryAt: 5, Horizon: 120,
			}
		},
		"lossy repeated flood with mortal churn": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: ringOverlay,
				Churn: churn.Config{InitialPopulation: 10,
					ArrivalRate: 0.2, Session: churn.ExpSessions(80)},
				Protocol: func() otq.Protocol {
					return &otq.RepeatedFlood{TTL: 4, MaxLatency: 2, MaxRounds: 3}
				},
				LossRate: 0.1,
				QueryAt:  30, Horizon: 400,
			}
		},
		"gossip push-sum": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: meshOverlay,
				Churn:   churn.Config{InitialPopulation: 8, Immortal: true},
				Protocol: func() otq.Protocol {
					return &otq.GossipPushSum{RoundInterval: 2, Rounds: 60, Seed: seed}
				},
				QueryAt: 5, Horizon: 300,
			}
		},
		"crash plan with recovery bridging": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: manualOverlay,
				Script:  cycleScript(8),
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
				},
				Faults:           mustPlan("crash:nodes=4,recover=50@60;seed=5"),
				Reliable:         node.ReliableConfig{Enabled: true, RetransmitAfter: 5, MaxRetries: 6},
				QueryAt:          25,
				Horizon:          1500,
				BridgeRecoveries: true,
			}
		},
		"rejoin churn with rejoin bridging": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: ringOverlay,
				Churn: churn.Config{InitialPopulation: 12,
					ArrivalRate: 0.15, Session: churn.ExpSessions(50),
					RejoinProb: 0.6, Downtime: churn.FixedSessions(6)},
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 800}
				},
				Identity:      node.IdentityConfig{Durable: true},
				QueryAt:       40,
				Horizon:       700,
				BridgeRejoins: true,
			}
		},
		"corruption storm behind auth quarantine": func(seed uint64) Scenario {
			return Scenario{
				Seed:    seed,
				Overlay: manualOverlay,
				Script:  cycleScript(8),
				Protocol: func() otq.Protocol {
					return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 3000}
				},
				Faults:   mustPlan("corrupt:nodes=3,p=0.5;seed=4"),
				Reliable: node.ReliableConfig{Enabled: true},
				Auth:     node.AuthConfig{Enabled: true},
				QueryAt:  25,
				Horizon:  1500,
			}
		},
	}
}

// TestStreamCheckMatchesBatchScenarios runs each streamScenarios cell
// twice — identical seed, judged by the post-hoc replay and then by the
// live feed (StreamCheck) — and requires both full Outcome structs to
// equal the frozen ones in streamOutcomesPath.
func TestStreamCheckMatchesBatchScenarios(t *testing.T) {
	raw, err := os.ReadFile(streamOutcomesPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]otq.Outcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for name, mk := range streamScenarios(t) {
		for seed := uint64(1); seed <= 2; seed++ {
			key := fmt.Sprintf("%s/seed %d", name, seed)
			frozen, ok := want[key]
			if !ok {
				t.Errorf("%s: no frozen outcome in %s", key, streamOutcomesPath)
				continue
			}
			cells++
			for _, live := range []bool{false, true} {
				sc := mk(seed)
				sc.StreamCheck = live
				if got := Execute(sc).Outcome; !reflect.DeepEqual(frozen, got) {
					t.Errorf("%s (live feed %v): verdict differs from the frozen one\nfrozen: %+v\ngot:    %+v",
						key, live, frozen, got)
				}
			}
		}
	}
	if cells != len(want) {
		t.Errorf("%s holds %d outcomes, the scenarios %d", streamOutcomesPath, len(want), cells)
	}
}

// TestStreamCheckLiteTwin: the count-only + StreamCheck composition — the
// configuration a post-hoc replay cannot run at all — produces the same
// verdict as the fully retained twin of the run.
func TestStreamCheckLiteTwin(t *testing.T) {
	cell := e29Cell{n: 200, horizon: 96, queryAt: 48}
	full := e29Run(3, cell, true)
	liteCell := cell
	liteCell.lite = true
	lite := e29Run(3, liteCell, true)
	if !reflect.DeepEqual(full.Outcome, lite.Outcome) {
		t.Fatalf("count-only retention changed the stream verdict:\nfull: %+v\nlite: %+v",
			full.Outcome, lite.Outcome)
	}
	if got := len(lite.Trace.Events()); got != 0 {
		t.Fatalf("count-only trace retained %d events", got)
	}
	if lite.Trace.Len() != full.Trace.Len() {
		t.Fatalf("event counters diverged: lite %d, full %d", lite.Trace.Len(), full.Trace.Len())
	}
}

// TestStreamCheckValidation: the Scenario guards around the new flag.
func TestStreamCheckValidation(t *testing.T) {
	assertPanics := func(name string, sc Scenario) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		Execute(sc)
	}
	assertPanics("StreamCheck without protocol", Scenario{
		Overlay: meshOverlay, StreamCheck: true, Horizon: 10,
	})
	assertPanics("LiteTrace with protocol but no StreamCheck", Scenario{
		Overlay: meshOverlay, LiteTrace: true, Horizon: 10,
		Protocol: func() otq.Protocol { return &otq.FloodTTL{TTL: 1, MaxLatency: 2} },
	})
}

// The acceptance bar for the streaming checker: a JUDGED 10k-entity full
// world — live pex, churn, a real query — completes under count-only
// retention with full OTQ verdicts.
func TestE29TenKJudgedWorldCompletes(t *testing.T) {
	if raceDetectorOn {
		t.Skip("a judged 10k world takes minutes under the race detector; raced E29 coverage comes from TestAllExperimentsRun/E29")
	}
	cell := e29Cell{n: 10000, horizon: 96, queryAt: 48, lite: true}
	res := e29Run(1, cell, true)
	if res.Trace.MaxConcurrency() < 10000 {
		t.Fatalf("peak concurrency %d, want >= 10000", res.Trace.MaxConcurrency())
	}
	if got := len(res.Trace.Events()); got != 0 {
		t.Fatalf("count-only trace retained %d events", got)
	}
	out := res.Outcome
	if !out.Terminated {
		t.Fatalf("flood query did not terminate: %+v", out)
	}
	if out.StableCount < 10000 {
		t.Fatalf("stable count %d, want >= 10000 (immortal initial population)", out.StableCount)
	}
	if out.CoveredStable == 0 {
		t.Fatalf("query covered nobody: %+v", out)
	}
}

func TestE29Deterministic(t *testing.T) {
	cell := e29Cell{n: 300, horizon: 96, queryAt: 48}
	a := e29Run(7, cell, true)
	b := e29Run(7, cell, true)
	if !reflect.DeepEqual(a.Outcome, b.Outcome) || a.Messages != b.Messages {
		t.Fatalf("replays differ:\n%+v %+v\n%+v %+v", a.Outcome, a.Messages, b.Outcome, b.Messages)
	}
}

func TestE29QuickReport(t *testing.T) {
	if raceDetectorOn {
		t.Skip("duplicates TestAllExperimentsRun/E29 under the race detector")
	}
	rep := E29(quick)
	out := rep.String()
	if !strings.Contains(out, "E29") || !strings.Contains(out, "count-only") {
		t.Fatalf("report missing expected rows:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("checkers diverged inside E29:\n%s", out)
	}
}
