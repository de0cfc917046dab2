package sim

import (
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	e := New()
	if n := e.Run(); n != 0 {
		t.Fatalf("Run on empty engine fired %d events", n)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %d with no events", e.Now())
	}
}

func TestOrderingByTime(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d after run, want 30", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired in order %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(100, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 105 {
		t.Fatalf("After(5) from t=100 fired at %d", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(10, func() { fired = true })
	ev.Cancel()
	if e.Pending() != 0 {
		t.Fatal("event still pending after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double cancel is a no-op.
	ev.Cancel()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(12)
	if n != 2 {
		t.Fatalf("RunUntil(12) fired %d events, want 2", n)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d after RunUntil(12)", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events not fired: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("idle RunUntil left clock at %d", e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	tk := e.Every(10, func() {
		count++
		if count == 5 {
			// Stop from inside the callback.
		}
	})
	e.RunUntil(55)
	tk.Stop()
	e.RunUntil(200)
	if count != 5 {
		t.Fatalf("ticker fired %d times in 55 ticks, want 5", count)
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(1, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after in-callback Stop at 3", count)
	}
	tk.Stop() // double stop is a no-op
}

func TestEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New().Every(0, func() {})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := New()
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth == 0 {
				return
			}
			e.After(Time(depth), func() { spawn(depth - 1) })
			e.After(Time(depth*2), func() { spawn(depth - 1) })
		}
		e.At(0, func() { spawn(5) })
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", e.Pending())
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestCanceledHeadDiscardedByRunUntil(t *testing.T) {
	e := New()
	ev := e.At(5, func() {})
	ev.Cancel()
	fired := false
	e.At(30, func() { fired = true })
	e.RunUntil(10)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	e.Run()
	if !fired {
		t.Fatal("pending event lost")
	}
}

// Property: whatever the scheduling pattern, events fire in nondecreasing
// time, and events sharing a time fire in scheduling order.
func TestPropertyFiringOrder(t *testing.T) {
	check := func(raw []uint8) bool {
		e := New()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, r := range raw {
			at, i := Time(r%16), i
			e.At(at, func() { log = append(log, fired{at: at, seq: i}) })
		}
		e.Run()
		if len(log) != len(raw) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 100; j++ {
			e.At(Time(j%17), func() {})
		}
		e.Run()
	}
}
