// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate every dynamic-system experiment runs on: a
// virtual clock, a timer queue of scheduled events, and helpers for
// repeating processes. It is strictly single-threaded; determinism comes
// from a total order on events (time, then a monotonically increasing
// sequence number for ties), so a seeded experiment replays the identical
// trace on every run.
//
// The queue is a calendar wheel: a ring of per-tick buckets covering a
// sliding near-future window, backed by a sorted overflow heap for events
// beyond it. Almost every event a protocol schedules — message latencies,
// retransmission timeouts, gossip cadences — lands within a few hundred
// ticks of now, so scheduling and firing are O(1) appends and scans; the
// long tail (parole deadlines, far-future churn) pays one heap operation
// on entry and one on promotion into the window, which is exactly the
// cost the old single global heap charged every event.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual simulation time in abstract ticks. Message latencies,
// session durations and protocol timeouts are all expressed in ticks.
type Time int64

const (
	// wheelSize is the width, in ticks, of the calendar wheel's sliding
	// window [windowStart, windowStart+wheelSize). It comfortably covers
	// every near-future delay the node layers schedule (latencies 1-8,
	// RTOs <= 64, gossip/pull cadences <= 40, parole ~150); anything
	// farther waits in the overflow heap. Must be a power of two.
	wheelSize = 256
	wheelMask = wheelSize - 1

	// slabSize batches Event allocation. Events are arena-allocated in
	// chunks and never reused, so handing out a pointer is one alloc per
	// slabSize events instead of one each.
	slabSize = 128
)

// Locations an event can occupy; popped covers fired, canceled and
// not-yet-scheduled.
const (
	wherePopped int8 = iota
	whereWheel
	whereOverflow
)

// Event is a scheduled callback. Events are ordered by time, ties broken
// by scheduling order.
type Event struct {
	at       Time
	seq      uint64
	do       func()    // closure form (At/After)
	call     func(any) // closure-free form (AtCall/AfterCall)
	arg      any
	canceled bool
	where    int8
	index    int // slot in its wheel bucket or overflow heap
	eng      *Engine
}

// Cancel removes a pending event from the queue immediately: the slot is
// freed, the callback (and anything it captures) is released to the
// garbage collector, and Pending drops by one. Canceling an event that
// has already fired or been canceled is a no-op.
func (ev *Event) Cancel() {
	if ev.canceled || ev.where == wherePopped {
		ev.canceled = true
		return
	}
	ev.canceled = true
	e := ev.eng
	switch ev.where {
	case whereWheel:
		b := &e.wheel[int(ev.at&wheelMask)]
		b.events[ev.index] = nil
		e.nearCount--
	case whereOverflow:
		heap.Remove(&e.overflow, ev.index)
	}
	ev.where = wherePopped
	ev.index = -1
	ev.do, ev.call, ev.arg = nil, nil, nil
}

// bucket holds the events of one tick inside the wheel window. Buckets
// are reset lazily: tick records which tick the slice currently belongs
// to, and a scheduler hitting the slot with a different (always newer)
// tick recycles it in place.
type bucket struct {
	tick   Time
	events []*Event
	head   int // events[:head] have been fired or canceled
}

type overflowHeap []*Event

func (h overflowHeap) Len() int { return len(h) }
func (h overflowHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h overflowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *overflowHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *overflowHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is the simulation driver. The zero value is not usable; construct
// with New.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	limit uint64 // safety valve: max events per run, 0 = unlimited

	// windowStart is the left edge of the wheel window. Invariants: no
	// pending event has at < windowStart; every wheel-resident event has
	// at in [windowStart, windowStart+wheelSize); windowStart >= now
	// whenever control is outside the engine.
	windowStart Time
	wheel       []bucket // wheelSize buckets, indexed by at & wheelMask
	nearCount   int      // live (non-canceled) events in the wheel
	overflow    overflowHeap

	slab     []Event
	slabUsed int
}

// New returns an empty engine with the clock at 0.
func New() *Engine {
	return &Engine{wheel: make([]bucket, wheelSize)}
}

// newEvent hands out the next slot of the current allocation slab.
// Slots are used exactly once, so fields start zeroed.
func (e *Engine) newEvent() *Event {
	if e.slabUsed == len(e.slab) {
		e.slab = make([]Event, slabSize)
		e.slabUsed = 0
	}
	ev := &e.slab[e.slabUsed]
	e.slabUsed++
	return ev
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the exact number of scheduled, not-yet-fired events.
// Canceled events are removed eagerly and never counted.
func (e *Engine) Pending() int { return e.nearCount + e.overflow.Len() }

// schedule places a fresh event at absolute time t, choosing wheel or
// overflow by whether t falls inside the current window.
func (e *Engine) schedule(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := e.newEvent()
	ev.at, ev.seq, ev.eng = t, e.seq, e
	e.seq++
	if t < e.windowStart+wheelSize {
		e.wheelInsert(ev)
	} else {
		ev.where = whereOverflow
		heap.Push(&e.overflow, ev)
	}
	return ev
}

func (e *Engine) wheelInsert(ev *Event) {
	b := &e.wheel[int(ev.at&wheelMask)]
	if b.tick != ev.at {
		b.tick = ev.at
		b.events = b.events[:0]
		b.head = 0
	}
	ev.where = whereWheel
	ev.index = len(b.events)
	b.events = append(b.events, ev)
	e.nearCount++
}

// advanceWindow slides the window forward so it starts at t, promoting
// any overflow events that now fall inside it. Callers guarantee no
// pending event has at < t.
func (e *Engine) advanceWindow(t Time) {
	if t <= e.windowStart {
		return
	}
	e.windowStart = t
	for e.overflow.Len() > 0 && e.overflow[0].at < t+wheelSize {
		e.wheelInsert(heap.Pop(&e.overflow).(*Event))
	}
}

// popNext removes and returns the next event in (time, seq) order, or nil
// if the queue is empty — or, when bounded, if the next event lies past
// bound. The wheel is scanned from windowStart; bucket contents are
// always in seq order for their tick (appends carry fresh, higher seqs,
// and overflow promotion drains the heap in (at, seq) order into buckets
// the scheduler can no longer prepend to).
func (e *Engine) popNext(bound Time, bounded bool) *Event {
	for {
		if e.nearCount > 0 {
			for t := e.windowStart; ; t++ {
				if t >= e.windowStart+wheelSize {
					panic("sim: wheel accounting out of sync")
				}
				b := &e.wheel[int(t&wheelMask)]
				if b.tick != t {
					continue
				}
				for b.head < len(b.events) {
					ev := b.events[b.head]
					if ev == nil { // tombstone of an eagerly canceled event
						b.head++
						continue
					}
					if bounded && ev.at > bound {
						return nil
					}
					b.events[b.head] = nil
					b.head++
					e.nearCount--
					ev.where = wherePopped
					ev.index = -1
					e.advanceWindow(ev.at)
					return ev
				}
			}
		}
		if e.overflow.Len() == 0 {
			return nil
		}
		if next := e.overflow[0].at; bounded && next > bound {
			return nil
		} else {
			// Jump the window to the overflow minimum; the promotion
			// lands it in the wheel and the next pass pops it.
			e.advanceWindow(next)
		}
	}
}

// At schedules do to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a protocol bug, not a recoverable condition.
func (e *Engine) At(t Time, do func()) *Event {
	ev := e.schedule(t)
	ev.do = do
	return ev
}

// After schedules do to run d ticks from now. Negative d panics.
func (e *Engine) After(d Time, do func()) *Event {
	return e.At(e.now+d, do)
}

// AtCall schedules call(arg) at absolute virtual time t. It is the
// closure-free twin of At for hot paths: the caller supplies a shared
// (typically package-level or pre-bound) function and threads its state
// through arg, so scheduling a delivery allocates no closure.
func (e *Engine) AtCall(t Time, call func(any), arg any) *Event {
	ev := e.schedule(t)
	ev.call, ev.arg = call, arg
	return ev
}

// AfterCall schedules call(arg) d ticks from now. Negative d panics.
func (e *Engine) AfterCall(d Time, call func(any), arg any) *Event {
	return e.AtCall(e.now+d, call, arg)
}

// fire runs one popped event, advancing the clock to its time. Callback
// references are cleared first so captured state dies with the firing.
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.fired++
	do, call, arg := ev.do, ev.call, ev.arg
	ev.do, ev.call, ev.arg = nil, nil, nil
	if call != nil {
		call(arg)
	} else if do != nil {
		do()
	}
}

// Step fires the next event, advancing the clock to its time. It reports
// whether an event was fired (false means the queue is empty).
func (e *Engine) Step() bool {
	ev := e.popNext(0, false)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until the queue drains or the event limit is reached.
// It returns the number of events fired by this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	for e.Step() {
		if e.limit > 0 && e.fired >= e.limit {
			break
		}
	}
	return e.fired - start
}

// RunUntil fires events with time <= deadline, then sets the clock to the
// deadline (if it has not passed it already). Events scheduled after the
// deadline remain pending.
//
// If the event limit trips mid-window the clock stays where the last
// fired event put it: events at or before the deadline are still
// pending, and advancing past them would let a later Step move the
// clock backwards.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	for {
		ev := e.popNext(deadline, true)
		if ev == nil {
			// Drained past the deadline: safe to advance the idle clock.
			if e.now < deadline {
				e.now = deadline
				e.advanceWindow(deadline)
			}
			break
		}
		e.fire(ev)
		if e.limit > 0 && e.fired >= e.limit {
			break
		}
	}
	return e.fired - start
}

// Every schedules do to run every interval ticks starting at now+interval,
// until the returned Ticker is stopped. The interval must be positive.
func (e *Engine) Every(interval Time, do func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	t := &Ticker{engine: e, interval: interval, do: do}
	t.schedule()
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine   *Engine
	interval Time
	do       func()
	next     *Event
	stopped  bool
}

func (t *Ticker) schedule() {
	t.next = t.engine.After(t.interval, func() {
		if t.stopped {
			return
		}
		t.do()
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop cancels future firings. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.next != nil {
		t.next.Cancel()
	}
}
