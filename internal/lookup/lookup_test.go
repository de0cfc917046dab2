package lookup

import (
	"math"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

func fingerWorld(l *Lookup, n int) (*node.World, *sim.Engine) {
	e := sim.New()
	w := node.NewWorld(e, topology.NewFingerRing(), l.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 1,
	})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	return w, e
}

func TestLookupFindsTrueOwner(t *testing.T) {
	const n = 64
	l := &Lookup{}
	w, e := fingerWorld(l, n)
	r := rng.New(3)
	for trial := 0; trial < 40; trial++ {
		key := r.Uint64()
		origin := w.Present()[r.Intn(n)]
		run := l.Launch(w, origin, key)
		e.RunUntil(e.Now() + 500)
		res := run.Result()
		if res == nil {
			t.Fatalf("trial %d: lookup for %d never resolved", trial, key)
		}
		want := TrueOwner(w.Present(), key)
		if res.Owner != want {
			t.Fatalf("trial %d: owner %d, want %d", trial, res.Owner, want)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	const n = 128
	l := &Lookup{}
	w, e := fingerWorld(l, n)
	r := rng.New(7)
	maxHops := 0
	total := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		key := r.Uint64()
		run := l.Launch(w, w.Present()[r.Intn(n)], key)
		e.RunUntil(e.Now() + 500)
		res := run.Result()
		if res == nil {
			t.Fatalf("trial %d unresolved", trial)
		}
		total += res.Hops
		if res.Hops > maxHops {
			maxHops = res.Hops
		}
	}
	logN := math.Log2(n)
	if avg := float64(total) / trials; avg > 2*logN {
		t.Fatalf("average hops %.1f > 2*log2(n)=%.1f", avg, 2*logN)
	}
	if float64(maxHops) > 4*logN {
		t.Fatalf("max hops %d > 4*log2(n)=%.1f", maxHops, 4*logN)
	}
}

func TestLookupFromOwnerIsZeroHops(t *testing.T) {
	l := &Lookup{}
	w, e := fingerWorld(l, 16)
	// Pick a key owned by a known member, then look it up from there.
	owner := w.Present()[4]
	key := topology.HashPos(owner) // the owner's own position: it owns it
	run := l.Launch(w, owner, key)
	e.RunUntil(100)
	res := run.Result()
	if res == nil || res.Owner != owner || res.Hops != 0 {
		t.Fatalf("self-lookup = %+v", res)
	}
}

func TestLookupSurvivesMildChurn(t *testing.T) {
	l := &Lookup{}
	e := sim.New()
	w := node.NewWorld(e, topology.NewFingerRing(), l.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 5,
	})
	gen := churn.New(5, churn.Config{
		InitialPopulation: 24, Immortal: true,
		ArrivalRate: 0.05, Session: churn.ExpSessions(120),
	})
	w.ApplyChurn(gen, 2000)
	e.RunUntil(100)
	r := rng.New(11)
	resolved, correct := 0, 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		key := r.Uint64()
		present := w.Present()
		run := l.Launch(w, present[r.Intn(len(present))], key)
		e.RunUntil(e.Now() + 60)
		if res := run.Result(); res != nil {
			resolved++
			// Correct if the claimed owner was the true owner among the
			// members present at answer time.
			if res.Owner == TrueOwner(w.Trace.PresentAt(res.At), key) {
				correct++
			}
		}
	}
	if resolved < trials*8/10 {
		t.Fatalf("only %d/%d lookups resolved under mild churn", resolved, trials)
	}
	if correct < resolved*8/10 {
		t.Fatalf("only %d/%d resolved lookups named the true owner", correct, resolved)
	}
}

func TestTrueOwnerWrapsAround(t *testing.T) {
	members := []graph.NodeID{1, 2, 3, 4, 5}
	// A key clockwise-after the largest position must wrap to the
	// smallest-position member.
	maxPos := uint64(0)
	var maxM graph.NodeID
	minPos := ^uint64(0)
	var minM graph.NodeID
	for _, m := range members {
		if p := topology.HashPos(m); p > maxPos {
			maxPos, maxM = p, m
		}
		if p := topology.HashPos(m); p < minPos {
			minPos, minM = p, m
		}
	}
	_ = maxM
	if got := TrueOwner(members, maxPos+1); got != minM {
		t.Fatalf("wrap-around owner = %d, want %d", got, minM)
	}
	if TrueOwner(nil, 5) != 0 {
		t.Fatal("empty membership should return 0")
	}
}

func TestLaunchValidation(t *testing.T) {
	l := &Lookup{}
	w, e := fingerWorld(l, 4)
	for name, f := range map[string]func(){
		"absent origin": func() { l.Launch(w, 99, 1) },
		"duplicate key": func() {
			l.Launch(w, 1, 42)
			e.RunUntil(100)
			l.Launch(w, 2, 42)
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

// TestHopBudgetExhaustion starts lookups the way Launch does, but with a
// 1-hop budget in place of maxHops.
func TestHopBudgetExhaustion(t *testing.T) {
	l := &Lookup{runs: map[uint64]*Run{}}
	w, e := fingerWorld(l, 64)
	r := rng.New(2)
	unresolved := 0
	for trial := 0; trial < 10; trial++ {
		origin, key := w.Present()[r.Intn(64)], r.Uint64()
		p := w.Proc(origin)
		b, _ := node.FindBehavior[*lookupBehavior](p.Behavior())
		run := &Run{}
		l.runs[key] = run
		b.route(p, lookupMsg{Key: key, Budget: 1, Querier: origin})
		e.RunUntil(e.Now() + 200)
		if run.Result() == nil {
			unresolved++
		}
	}
	if unresolved == 0 {
		t.Fatal("a 1-hop budget should strand most lookups on a 64-member ring")
	}
}
