package node

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// armedTimers counts the timers armed across the world's present
// entities: with no message in flight, exactly what the engine holds.
func armedTimers(w *World) int {
	n := 0
	w.procs.Each(func(_ graph.NodeID, p *Proc) { n += len(p.timers) })
	return n
}

// A timer canceled by Leave or Crash never fires — not even once its
// entity is back and re-arms timers drawn from the free list, which by
// then holds objects recycled from another entity's firings.
func TestCanceledTimersStayDeadThroughRecycling(t *testing.T) {
	engine := sim.New()
	w := NewWorld(engine, topology.NewManual(), nil, Config{Seed: 1})
	left, crashed, ticker := w.Join(1), w.Join(2), w.Join(3)

	stale := 0
	for i := 0; i < 4; i++ {
		left.After(sim.Time(5+i), func() { stale++ })
		crashed.After(sim.Time(5+i), func() { stale++ })
	}
	var tick func()
	tick = func() { ticker.After(1, tick) }
	ticker.After(1, tick)
	for i := 0; i < 6; i++ {
		ticker.After(sim.Time(1+i), func() {})
	}
	engine.RunUntil(2)
	w.Leave(1)
	w.Crash(2)
	engine.RunUntil(8)
	if len(w.timerFree) == 0 {
		t.Fatal("no fired timer reached the free list")
	}
	pooled := map[*procTimer]bool{}
	for _, pt := range w.timerFree {
		pooled[pt] = true
	}

	back, recovered := w.Join(1), w.Recover(2)
	var fresh []sim.Time
	for i := 0; i < 3; i++ {
		back.After(sim.Time(1+i), func() { fresh = append(fresh, engine.Now()) })
		recovered.After(sim.Time(1+i), func() { fresh = append(fresh, engine.Now()) })
	}
	reused := 0
	for _, pt := range append(back.timers, recovered.timers...) {
		if pooled[pt] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("the returning entities drew no timer from the free list")
	}
	engine.RunUntil(40)
	if stale != 0 {
		t.Fatalf("%d timers canceled at departure fired", stale)
	}
	want := []sim.Time{9, 9, 10, 10, 11, 11}
	if len(fresh) != len(want) {
		t.Fatalf("re-armed timers fired at %v, want %v", fresh, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("re-armed timers fired at %v, want %v", fresh, want)
		}
	}
}

// The timers a departure cancels go back to the free list, and a stale
// copy of a canceled timer's handle cannot cancel the timer a later
// entity arms in the same object (and, by then, the same engine slot).
func TestDepartedTimersAreRecycled(t *testing.T) {
	engine := sim.New()
	w := NewWorld(engine, topology.NewManual(), nil, Config{Seed: 1})
	gone := w.Join(1)
	for i := 0; i < 3; i++ {
		gone.After(sim.Time(10+i), func() { t.Error("a timer canceled at departure fired") })
	}
	departed := map[*procTimer]bool{}
	var stale []sim.Handle
	for _, pt := range gone.timers {
		departed[pt] = true
		stale = append(stale, pt.ev)
	}
	free := len(w.timerFree)
	w.Leave(1)
	if got := len(w.timerFree) - free; got != len(departed) {
		t.Fatalf("departure returned %d timers to the free list, want %d", got, len(departed))
	}

	p := w.Join(2)
	fired := 0
	for i := 0; i < 3; i++ {
		p.After(sim.Time(5+i), func() { fired++ })
	}
	for _, pt := range p.timers {
		if !departed[pt] {
			t.Fatal("the next entity's timers were not drawn from the departed entity's")
		}
	}
	for _, h := range stale {
		h.Cancel()
	}
	if engine.Pending() != 3 {
		t.Fatalf("stale handles canceled live timers: Pending() = %d, want 3", engine.Pending())
	}
	engine.RunUntil(100)
	if fired != 3 {
		t.Fatalf("%d of the 3 recycled timers fired", fired)
	}
}

// A timer armed from inside a firing callback fires at its own tick, even
// though it is the very object that just fired.
func TestTimerArmedInCallbackFiresOnTime(t *testing.T) {
	engine := sim.New()
	w := NewWorld(engine, topology.NewManual(), nil, Config{Seed: 1})
	p := w.Join(1)

	var firedAt []sim.Time
	var first *procTimer
	p.After(10, func() {
		firedAt = append(firedAt, engine.Now())
		p.After(3, func() { firedAt = append(firedAt, engine.Now()) })
		p.After(0, func() { firedAt = append(firedAt, engine.Now()) })
		if p.timers[0] != first {
			t.Error("the re-armed timer is not the one that just fired: the free list was bypassed")
		}
	})
	first = p.timers[0]
	engine.RunUntil(100)
	want := []sim.Time{10, 10, 13}
	if len(firedAt) != len(want) || firedAt[0] != want[0] || firedAt[1] != want[1] || firedAt[2] != want[2] {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
	if len(p.timers) != 0 {
		t.Fatalf("%d timers still registered after all fired", len(p.timers))
	}
}

// Engine.Pending stays exact across fire, cancel and recycle: with no
// message in flight it always equals the timers the entities hold.
func TestPendingExactAcrossTimerRecycling(t *testing.T) {
	engine := sim.New()
	w := NewWorld(engine, topology.NewManual(), nil, Config{Seed: 1})
	a, b := w.Join(1), w.Join(2)
	check := func(step string, want int) {
		t.Helper()
		if got, armed := engine.Pending(), armedTimers(w); got != want || armed != want {
			t.Fatalf("%s: Pending() = %d, armed timers = %d, want %d", step, got, armed, want)
		}
	}
	for i := 0; i < 5; i++ {
		a.After(sim.Time(1+i), func() {})
		b.After(sim.Time(1+i), func() {})
	}
	check("armed", 10)
	engine.RunUntil(2)
	check("four fired", 6)
	w.Leave(1)
	check("three canceled", 3)
	a = w.Join(1)
	for i := 0; i < 4; i++ {
		a.After(sim.Time(1+i), func() { a.After(20, func() {}) })
	}
	check("re-armed from the pool", 7)
	engine.RunUntil(4)
	check("four fired, two of them re-armed", 5)
	w.Crash(2)
	check("crash canceled one", 4)
	engine.RunUntil(100)
	check("drained", 0)
}
