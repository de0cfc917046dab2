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
//
// Pending events live by value in one pool the engine owns. A bucket is
// the two ends of a list threaded through the pool, the overflow heap
// holds pool slots, and a fired or canceled event's slot goes straight
// back to a free list, so a world in steady state allocates nothing in
// the kernel. Scheduling returns a Handle, a value naming the slot and
// the event's sequence number: Cancel on a handle whose event is gone is
// a no-op even after a later event reused the slot.
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

	// none is the nil slot: an empty bucket end, list link or free list.
	none int32 = -1
)

// event is one pool slot. A pending event sits in exactly one place: a
// wheel bucket's list (prev/next link it there, index is none) or the
// overflow heap (index is its heap position). A free slot has seq 0,
// which no event carries, and threads the free list through next.
type event struct {
	at         Time
	seq        uint64
	call       func(any)
	arg        any
	prev, next int32
	index      int32
}

// Handle names one scheduled event. It is a value: the slot it points at
// is reused once the event fires or is canceled, and the seq it carries
// is what tells the event it named from a later one in the same slot.
// The zero Handle names nothing.
type Handle struct {
	eng  *Engine
	slot int32
	seq  uint64
}

// Cancel removes a pending event from the queue immediately: the slot is
// freed, the callback (and anything its argument holds) is released to
// the garbage collector, and Pending drops by one. Canceling an event
// that has already fired or been canceled is a no-op, even when its slot
// now holds a later event.
func (h Handle) Cancel() {
	e := h.eng
	if e == nil {
		return
	}
	ev := &e.pool[h.slot]
	if ev.seq != h.seq {
		return
	}
	if ev.index == none {
		e.unlink(h.slot)
	} else {
		e.heapRemove(ev.index)
	}
	e.release(h.slot)
}

// bucket is the list of one tick's events inside the wheel window,
// threaded through the pool in seq order. It needs no tick of its own:
// every wheel event lies inside the window, where each residue mod
// wheelSize names exactly one tick, so a non-empty bucket's events all
// sit at that tick.
type bucket struct {
	head, tail int32
}

// Engine is the simulation driver. The zero value is not usable; construct
// with New.
type Engine struct {
	now   Time
	seq   uint64 // the last seq handed out; the first event gets 1
	fired uint64

	// pool holds every pending event by value; free heads the list of
	// slots that hold none. The pool only grows when every slot is
	// pending, so its length is the largest number of events that were
	// ever pending at once. It may reallocate whenever an event is
	// scheduled, so no *event is held across a schedule or a callback.
	pool []event
	free int32

	// windowStart is the left edge of the wheel window. Invariants: no
	// pending event has at < windowStart; every wheel-resident event has
	// at in [windowStart, windowStart+wheelSize); windowStart >= now
	// whenever control is outside the engine.
	windowStart Time
	wheel       [wheelSize]bucket // indexed by at & wheelMask
	nearCount   int               // events in the wheel
	overflow    []int32           // min-heap of slots by (at, seq)
}

// New returns an empty engine with the clock at 0.
func New() *Engine {
	e := &Engine{free: none}
	for i := range e.wheel {
		e.wheel[i] = bucket{head: none, tail: none}
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the exact number of scheduled, not-yet-fired events.
// Canceled events are removed eagerly and never counted.
func (e *Engine) Pending() int { return e.nearCount + len(e.overflow) }

// alloc takes a slot off the free list, growing the pool only when the
// list is empty.
func (e *Engine) alloc() int32 {
	if s := e.free; s != none {
		e.free = e.pool[s].next
		return s
	}
	e.pool = append(e.pool, event{})
	return int32(len(e.pool) - 1)
}

// release clears a slot that left the queue and puts it on the free list.
func (e *Engine) release(s int32) {
	e.pool[s] = event{next: e.free}
	e.free = s
}

// AtCall schedules call(arg) at absolute virtual time t. Scheduling in
// the past panics: it indicates a protocol bug, not a recoverable
// condition. The caller supplies a shared (typically package-level or
// pre-bound) function and threads its state through arg, so scheduling
// allocates nothing.
func (e *Engine) AtCall(t Time, call func(any), arg any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	s := e.alloc()
	e.seq++
	e.pool[s] = event{at: t, seq: e.seq, call: call, arg: arg}
	if t < e.windowStart+wheelSize {
		e.wheelInsert(s)
	} else {
		e.heapPush(s)
	}
	return Handle{eng: e, slot: s, seq: e.seq}
}

// AfterCall schedules call(arg) d ticks from now. Negative d panics.
func (e *Engine) AfterCall(d Time, call func(any), arg any) Handle {
	return e.AtCall(e.now+d, call, arg)
}

// At schedules do to run at absolute virtual time t. A func value is
// pointer-shaped, so riding as AtCall's argument boxes nothing.
func (e *Engine) At(t Time, do func()) Handle {
	return e.AtCall(t, callFunc, do)
}

// After schedules do to run d ticks from now. Negative d panics.
func (e *Engine) After(d Time, do func()) Handle {
	return e.AtCall(e.now+d, callFunc, do)
}

// callFunc is the shared callback of At and After.
func callFunc(arg any) { arg.(func())() }

// wheelInsert appends slot s to its tick's bucket.
func (e *Engine) wheelInsert(s int32) {
	ev := &e.pool[s]
	b := &e.wheel[int(ev.at&wheelMask)]
	ev.index, ev.prev, ev.next = none, b.tail, none
	if b.tail == none {
		b.head = s
	} else {
		e.pool[b.tail].next = s
	}
	b.tail = s
	e.nearCount++
}

// unlink removes wheel-resident slot s from its bucket's list.
func (e *Engine) unlink(s int32) {
	ev := &e.pool[s]
	b := &e.wheel[int(ev.at&wheelMask)]
	if ev.prev == none {
		b.head = ev.next
	} else {
		e.pool[ev.prev].next = ev.next
	}
	if ev.next == none {
		b.tail = ev.prev
	} else {
		e.pool[ev.next].prev = ev.prev
	}
	e.nearCount--
}

// advanceWindow slides the window forward so it starts at t, promoting
// any overflow events that now fall inside it. Callers guarantee no
// pending event has at < t.
func (e *Engine) advanceWindow(t Time) {
	if t <= e.windowStart {
		return
	}
	e.windowStart = t
	for len(e.overflow) > 0 && e.pool[e.overflow[0]].at < t+wheelSize {
		e.wheelInsert(e.heapRemove(0))
	}
}

// popNext removes and returns the slot of the next event in (time, seq)
// order, or none if the queue is empty — or, when bounded, if the next
// event lies past bound. The wheel is scanned from windowStart; bucket
// lists are always in seq order for their tick (appends carry fresh,
// higher seqs, and overflow promotion drains the heap in (at, seq) order
// into buckets the scheduler can no longer prepend to).
func (e *Engine) popNext(bound Time, bounded bool) int32 {
	for {
		if e.nearCount > 0 {
			for t := e.windowStart; ; t++ {
				if t >= e.windowStart+wheelSize {
					panic("sim: wheel accounting out of sync")
				}
				if bounded && t > bound {
					return none // every pending event lies at t or later
				}
				s := e.wheel[int(t&wheelMask)].head
				if s == none {
					continue
				}
				e.unlink(s)
				e.advanceWindow(t)
				return s
			}
		}
		if len(e.overflow) == 0 {
			return none
		}
		if next := e.pool[e.overflow[0]].at; bounded && next > bound {
			return none
		} else {
			// Jump the window to the overflow minimum; the promotion
			// lands it in the wheel and the next pass pops it.
			e.advanceWindow(next)
		}
	}
}

// fire runs one popped event, advancing the clock to its time. The
// callback is copied out and the slot released first, so captured state
// dies with the firing and a callback that schedules may reuse the slot
// (or grow the pool under it).
func (e *Engine) fire(s int32) {
	ev := &e.pool[s]
	e.now = ev.at
	e.fired++
	call, arg := ev.call, ev.arg
	e.release(s)
	call(arg)
}

// Step fires the next event, advancing the clock to its time. It reports
// whether an event was fired (false means the queue is empty).
func (e *Engine) Step() bool {
	s := e.popNext(0, false)
	if s == none {
		return false
	}
	e.fire(s)
	return true
}

// Run fires events until the queue drains. It returns the number of
// events fired by this call.
func (e *Engine) Run() uint64 {
	start := e.fired
	for e.Step() {
	}
	return e.fired - start
}

// RunUntil fires events with time <= deadline, then sets the clock to the
// deadline (if it has not passed it already). Events scheduled after the
// deadline remain pending.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.fired
	for {
		s := e.popNext(deadline, true)
		if s == none {
			break
		}
		e.fire(s)
	}
	if e.now < deadline {
		e.now = deadline
		e.advanceWindow(deadline)
	}
	return e.fired - start
}

// overflowHeap orders the overflow's slots by (at, seq) for
// container/heap, mirroring each slot's heap position in its index field.
// Slots enter and leave through heap.Fix on the engine's own slice (see
// heapPush and heapRemove), so Push and Pop, which would box every slot,
// are never called.
type overflowHeap struct{ e *Engine }

func (h overflowHeap) Len() int { return len(h.e.overflow) }
func (h overflowHeap) Less(i, j int) bool {
	a, b := &h.e.pool[h.e.overflow[i]], &h.e.pool[h.e.overflow[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
func (h overflowHeap) Swap(i, j int) {
	o := h.e.overflow
	o[i], o[j] = o[j], o[i]
	h.e.pool[o[i]].index, h.e.pool[o[j]].index = int32(i), int32(j)
}
func (overflowHeap) Push(any) { panic("sim: overflowHeap.Push") }
func (overflowHeap) Pop() any { panic("sim: overflowHeap.Pop") }

func (e *Engine) heapPush(s int32) {
	e.pool[s].index = int32(len(e.overflow))
	e.overflow = append(e.overflow, s)
	heap.Fix(overflowHeap{e}, len(e.overflow)-1)
}

// heapRemove takes the slot at heap position i out of the heap and
// returns it.
func (e *Engine) heapRemove(i int32) int32 {
	s, last := e.overflow[i], len(e.overflow)-1
	overflowHeap{e}.Swap(int(i), last)
	e.overflow = e.overflow[:last]
	if int(i) < last {
		heap.Fix(overflowHeap{e}, int(i))
	}
	return s
}

// Every schedules do to run every interval ticks starting at now+interval,
// until the returned Ticker is stopped. The interval must be positive.
func (e *Engine) Every(interval Time, do func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every with non-positive interval")
	}
	t := &Ticker{engine: e, interval: interval, do: do}
	t.next = e.AfterCall(interval, fireTicker, t)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	engine   *Engine
	interval Time
	do       func()
	next     Handle
	stopped  bool
}

// fireTicker is every ticker's shared callback: the ticker rides as the
// argument, so re-arming allocates nothing.
func fireTicker(arg any) {
	t := arg.(*Ticker)
	t.do()
	if !t.stopped {
		t.next = t.engine.AfterCall(t.interval, fireTicker, t)
	}
}

// Stop cancels future firings. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
