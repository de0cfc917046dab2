package churn

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func drain(g *Generator, horizon Time) []Event {
	var out []Event
	for {
		ev, ok := g.Next()
		if !ok || ev.At > horizon {
			return out
		}
		out = append(out, ev)
	}
}

func concurrencyProfile(events []Event) (max int, byNode map[graph.NodeID]int) {
	cur := 0
	byNode = make(map[graph.NodeID]int)
	for _, ev := range events {
		if ev.Join {
			cur++
			byNode[ev.Node]++
		} else {
			cur--
		}
		if cur > max {
			max = cur
		}
	}
	return max, byNode
}

func TestStaticPopulation(t *testing.T) {
	g := New(1, Config{InitialPopulation: 10, Immortal: true})
	evs := drain(g, 1000)
	if len(evs) != 10 {
		t.Fatalf("static config produced %d events, want 10 joins", len(evs))
	}
	for _, ev := range evs {
		if !ev.Join || ev.At != 0 {
			t.Fatalf("unexpected event %v", ev)
		}
	}
}

func TestEventsTimeOrdered(t *testing.T) {
	g := New(2, Config{InitialPopulation: 20, ArrivalRate: 0.5, Session: ExpSessions(30)})
	evs := drain(g, 500)
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order: %v then %v", evs[i-1], evs[i])
		}
	}
	if len(evs) < 100 {
		t.Fatalf("expected substantial churn, got %d events", len(evs))
	}
}

func TestDeterministic(t *testing.T) {
	cfg := Config{InitialPopulation: 5, ArrivalRate: 0.3, Session: ExpSessions(5)}
	a := drain(New(7, cfg), 300)
	b := drain(New(7, cfg), 300)
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNodeIDsUnique(t *testing.T) {
	g := New(3, Config{InitialPopulation: 5, ArrivalRate: 1, Session: ExpSessions(10)})
	evs := drain(g, 200)
	_, byNode := concurrencyProfile(evs)
	for id, joins := range byNode {
		if joins != 1 {
			t.Fatalf("node %d joined %d times; IDs must be fresh per arrival", id, joins)
		}
	}
}

func TestLeaveMatchesJoin(t *testing.T) {
	g := New(4, Config{InitialPopulation: 8, ArrivalRate: 0.5, Session: ExpSessions(20)})
	evs := drain(g, 400)
	joined := map[graph.NodeID]bool{}
	for _, ev := range evs {
		if ev.Join {
			joined[ev.Node] = true
		} else {
			if !joined[ev.Node] {
				t.Fatalf("node %d left without joining", ev.Node)
			}
			joined[ev.Node] = false
		}
	}
}

func TestBoundedConcurrencyMb(t *testing.T) {
	const b = 10
	g := New(5, Config{InitialPopulation: b, ArrivalRate: 2, Session: ExpSessions(50), MaxConcurrent: b})
	evs := drain(g, 1000)
	max, byNode := concurrencyProfile(evs)
	if max > b {
		t.Fatalf("M^b generator exceeded bound: concurrency %d > b=%d", max, b)
	}
	if len(byNode) <= b {
		t.Fatalf("M^b run saw only %d distinct entities; infinite arrival expected", len(byNode))
	}
}

func TestImmortalCore(t *testing.T) {
	g := New(6, Config{InitialPopulation: 4, Immortal: true, ArrivalRate: 1, Session: ExpSessions(5)})
	evs := drain(g, 500)
	for _, ev := range evs {
		if !ev.Join && ev.Node <= 4 {
			t.Fatalf("immortal core member %d left", ev.Node)
		}
	}
}

func TestQuiescence(t *testing.T) {
	const gst = 200
	g := New(7, Config{InitialPopulation: 10, ArrivalRate: 1, Session: ExpSessions(10), QuiesceAt: gst})
	evs := drain(g, 10000)
	if len(evs) == 0 {
		t.Fatal("no events before quiescence")
	}
	for _, ev := range evs {
		if ev.At >= gst {
			t.Fatalf("event %v at or after QuiesceAt=%d", ev, gst)
		}
	}
	// Stream must be exhausted, not merely beyond the horizon.
	if ev, ok := g.Next(); ok {
		t.Fatalf("event %v after quiescence", ev)
	}
}

func TestUnboundedGrowth(t *testing.T) {
	// M^infinity flavor: doubling arrival rate with long sessions makes
	// concurrency grow without bound over the horizon.
	g := New(8, Config{InitialPopulation: 2, ArrivalRate: 0.05, Session: FixedSessions(100000), DoubleEvery: 100})
	evs := drain(g, 1000)
	maxFirst, _ := concurrencyProfile(evs[:len(evs)/2])
	maxAll, _ := concurrencyProfile(evs)
	if maxAll <= maxFirst {
		t.Fatalf("concurrency not growing: first half %d, whole run %d", maxFirst, maxAll)
	}
	if maxAll < 20 {
		t.Fatalf("M^inf run reached only concurrency %d", maxAll)
	}
}

func TestCollectResumable(t *testing.T) {
	cfg := Config{InitialPopulation: 5, ArrivalRate: 0.5, Session: ExpSessions(20)}
	g := New(9, cfg)
	first := g.Collect(100)
	second := g.Collect(200)
	whole := drain(New(9, cfg), 200)
	got := append(append([]Event{}, first...), second...)
	if len(got) != len(whole) {
		t.Fatalf("split Collect produced %d events, contiguous drain %d", len(got), len(whole))
	}
	for i := range whole {
		if got[i] != whole[i] {
			t.Fatalf("split Collect diverges at %d: %v vs %v", i, got[i], whole[i])
		}
	}
	for _, ev := range first {
		if ev.At > 100 {
			t.Fatalf("Collect(100) returned event %v", ev)
		}
	}
}

func TestSessionDistPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ExpSessions(0)":   func() { ExpSessions(0) },
		"FixedSessions(0)": func() { FixedSessions(0) },
		"config":           func() { New(1, Config{InitialPopulation: 1, ArrivalRate: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEventString(t *testing.T) {
	j := Event{At: 3, Join: true, Node: 9}
	l := Event{At: 4, Join: false, Node: 9}
	if j.String() == l.String() {
		t.Error("join and leave events render identically")
	}
}

func TestExhaustionWithoutChurn(t *testing.T) {
	g := New(1, Config{InitialPopulation: 3, Immortal: true})
	drain(g, 10)
	if _, ok := g.Next(); ok {
		t.Fatal("immortal static stream should exhaust after initial joins")
	}
}

func TestMeanConcurrencyTracksLittlesLaw(t *testing.T) {
	// Little's law: steady-state population = arrival rate x mean session.
	const rate, mean = 1.0, 50.0
	g := New(10, Config{InitialPopulation: int(rate * mean), ArrivalRate: rate, Session: ExpSessions(mean)})
	evs := drain(g, 5000)
	cur, samples, sum := 0, 0, 0
	lastT := Time(0)
	for _, ev := range evs {
		if ev.At > 1000 { // skip warmup
			sum += cur * int(ev.At-lastT)
			samples += int(ev.At - lastT)
		}
		lastT = ev.At
		if ev.Join {
			cur++
		} else {
			cur--
		}
	}
	avg := float64(sum) / float64(samples)
	if avg < 0.7*rate*mean || avg > 1.3*rate*mean {
		t.Fatalf("steady-state population %v, want ~%v", avg, rate*mean)
	}
}

// Property: for arbitrary (seeded) configurations with a cap, observed
// concurrency never exceeds the cap, events stay time-ordered, and every
// leave matches an open join.
func TestPropertyBoundedConcurrency(t *testing.T) {
	check := func(seed uint16, rawB, rawRate, rawMean uint8) bool {
		b := 1 + int(rawB)%20
		rate := 0.05 + float64(rawRate%40)/20
		mean := 5 + float64(rawMean%60)
		g := New(uint64(seed), Config{
			InitialPopulation: b,
			ArrivalRate:       rate,
			Session:           ExpSessions(mean),
			MaxConcurrent:     b,
		})
		evs := drain(g, 400)
		cur := 0
		open := map[graph.NodeID]bool{}
		last := Time(-1)
		for _, ev := range evs {
			if ev.At < last {
				return false
			}
			last = ev.At
			if ev.Join {
				if open[ev.Node] {
					return false
				}
				open[ev.Node] = true
				cur++
				if cur > b {
					return false
				}
			} else {
				if !open[ev.Node] {
					return false
				}
				delete(open, ev.Node)
				cur--
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRejoinSameIdentity: with RejoinProb set, some departures come back
// under the SAME identity after their downtime — the churn pattern the
// durable-identity mode exists for. Non-rejoin joins still use fresh IDs,
// a rejoin is never earlier than its leave plus the minimum downtime, and
// the stream stays time-ordered with leaves matching open joins.
func TestRejoinSameIdentity(t *testing.T) {
	g := New(11, Config{
		InitialPopulation: 10,
		ArrivalRate:       0.5,
		Session:           ExpSessions(20),
		RejoinProb:        0.6,
		Downtime:          FixedSessions(15),
	})
	evs := drain(g, 2000)
	rejoins := 0
	leftAt := map[graph.NodeID]Time{}
	open := map[graph.NodeID]bool{}
	last := Time(0)
	for _, ev := range evs {
		if ev.At < last {
			t.Fatalf("events out of order at %v", ev)
		}
		last = ev.At
		if ev.Join {
			if open[ev.Node] {
				t.Fatalf("node %d joined while present", ev.Node)
			}
			if at, seen := leftAt[ev.Node]; seen {
				rejoins++
				if ev.At != at+15 {
					t.Fatalf("node %d rejoined at %d, left at %d, want fixed downtime 15", ev.Node, ev.At, at)
				}
			}
			open[ev.Node] = true
		} else {
			if !open[ev.Node] {
				t.Fatalf("node %d left without joining", ev.Node)
			}
			delete(open, ev.Node)
			leftAt[ev.Node] = ev.At
		}
	}
	if rejoins == 0 {
		t.Fatal("RejoinProb=0.6 produced no same-identity rejoins")
	}
}

// TestRejoinDeterministic: the rejoin coin and downtime draws ride the
// generator's single stream, so replays are exact.
func TestRejoinDeterministic(t *testing.T) {
	cfg := Config{
		InitialPopulation: 8,
		ArrivalRate:       0.4,
		Session:           ExpSessions(25),
		RejoinProb:        0.5,
		Downtime:          ExpSessions(10),
	}
	a := drain(New(17, cfg), 800)
	b := drain(New(17, cfg), 800)
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRejoinConfigPanics: a rejoin probability outside [0,1] and a
// probability without a downtime distribution are both coding errors.
func TestRejoinConfigPanics(t *testing.T) {
	base := Config{InitialPopulation: 1, ArrivalRate: 1, Session: ExpSessions(10)}
	for name, f := range map[string]func(){
		"negative prob": func() {
			cfg := base
			cfg.RejoinProb, cfg.Downtime = -0.1, FixedSessions(5)
			New(1, cfg)
		},
		"prob above one": func() {
			cfg := base
			cfg.RejoinProb, cfg.Downtime = 1.5, FixedSessions(5)
			New(1, cfg)
		},
		"missing downtime": func() {
			cfg := base
			cfg.RejoinProb = 0.5
			New(1, cfg)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := New(uint64(i), Config{InitialPopulation: 50, ArrivalRate: 1, Session: ExpSessions(30)})
		drain(g, 1000)
	}
}

// TestAllocIDRefusesOverflow: the generator hands out graph.MaxNodeID
// and then panics with a message, rather than wrapping to a negative ID
// that would alias no identity or a reused one.
func TestAllocIDRefusesOverflow(t *testing.T) {
	g := New(1, Config{InitialPopulation: 1, Immortal: true})
	g.nextID = graph.MaxNodeID - 1
	if id := g.allocID(); id != graph.MaxNodeID {
		t.Fatalf("allocID = %d, want %d", id, graph.MaxNodeID)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "identities exhausted") {
			t.Fatalf("allocID past MaxNodeID recovered %v, want an identities-exhausted panic", r)
		}
	}()
	g.allocID()
}
