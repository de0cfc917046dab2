package sim

import "testing"

// A handle names one event, not one slot: once its event fired or was
// canceled and a later event took over the slot, Cancel on the old handle
// leaves the later event alone.
func TestStaleHandleSparesSlotReuser(t *testing.T) {
	for _, how := range []string{"fired", "canceled"} {
		e := New()
		old := e.At(5, func() {})
		if how == "fired" {
			e.Run()
		} else {
			old.Cancel()
		}
		fired := false
		next := e.At(e.Now()+3, func() { fired = true })
		if next.slot != old.slot {
			t.Fatalf("%s: new event took slot %d, not the freed slot %d", how, next.slot, old.slot)
		}
		old.Cancel()
		if e.Pending() != 1 {
			t.Fatalf("%s: stale Cancel dropped Pending to %d", how, e.Pending())
		}
		e.Run()
		if !fired {
			t.Fatalf("%s: stale Cancel stopped the event that reused its slot", how)
		}
	}
}

// A handle canceled from inside its own callback names a slot that was
// released before the callback ran; the Cancel is a no-op, also for an
// event the callback scheduled into that slot.
func TestCancelOwnHandleInCallback(t *testing.T) {
	e := New()
	var self Handle
	fired := 0
	self = e.At(1, func() {
		e.At(2, func() { fired++ })
		self.Cancel()
	})
	e.Run()
	if fired != 1 {
		t.Fatalf("event scheduled from a callback fired %d times after the callback canceled its own handle", fired)
	}
}

// The pool never leaks: after TestDifferentialFiringOrder's script, with
// its mix of near and far events, step bursts, deadlines and cancels
// (many of them stale), the pool is no longer than the most events that
// were ever pending at once.
func TestPoolBoundedByPeakPending(t *testing.T) {
	e := New()
	var handles []Handle
	peak := 0
	nop := func() {}
	for _, op := range makeScript(7, 100_000) {
		switch op.kind {
		case 0:
			handles = append(handles, e.At(e.Now()+op.delay, nop))
		case 1:
			handles[op.pick].Cancel()
		case 2:
			for i := Time(0); i < op.delay; i++ {
				e.Step()
			}
		case 3:
			e.RunUntil(e.Now() + op.delay)
		}
		peak = max(peak, e.Pending())
	}
	e.Run()
	if len(e.pool) > peak {
		t.Fatalf("pool grew to %d slots, but at most %d events were pending", len(e.pool), peak)
	}
	if peak == 0 {
		t.Fatal("the script never had an event pending")
	}
}

// Once the pool has grown to a steady state's peak, scheduling, firing
// and canceling allocate nothing, on the wheel and in the overflow heap.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	e := New()
	nop := func(any) {}
	round := func() {
		near := e.AfterCall(3, nop, nil)
		far := e.AfterCall(wheelSize*2, nop, nil)
		e.AfterCall(1, nop, e)
		e.After(2, func() {})
		near.Cancel()
		e.RunUntil(e.Now() + 4)
		far.Cancel()
	}
	round()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("schedule/fire/cancel round allocated %.1f times", n)
	}
}

// A running ticker re-arms through the shared fireTicker: no closure, no
// allocation per tick.
func TestTickerAllocatesNothingPerTick(t *testing.T) {
	e := New()
	ticks := 0
	tk := e.Every(1, func() { ticks++ })
	e.Step()
	if n := testing.AllocsPerRun(1000, func() { e.Step() }); n != 0 {
		t.Fatalf("a tick allocated %.1f times", n)
	}
	tk.Stop()
	if e.Pending() != 0 || ticks != 1002 {
		t.Fatalf("after Stop: Pending %d, ticks %d, want 0 and 1002", e.Pending(), ticks)
	}
}
