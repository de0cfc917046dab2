package sim

import "testing"

// --- satellite regressions -------------------------------------------------

// Pending is exact: canceled events leave the count immediately, in both
// the wheel and the overflow heap.
func TestPendingExactAfterCancel(t *testing.T) {
	e := New()
	near := e.At(5, func() {})
	far := e.At(wheelSize*3, func() {})
	keep := e.At(7, func() {})
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	near.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after near cancel, want 2", e.Pending())
	}
	far.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after far cancel, want 1", e.Pending())
	}
	keep.Cancel()
	keep.Cancel() // double cancel is a no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after all cancels, want 0", e.Pending())
	}
	if e.Run() != 0 {
		t.Fatal("canceled events fired")
	}
}

// Far-future events wait in the overflow heap and promote into the wheel
// in (time, seq) order as the window slides.
func TestOverflowPromotionOrder(t *testing.T) {
	e := New()
	var got []Time
	log := func(at Time) func() { return func() { got = append(got, at) } }
	for _, at := range []Time{wheelSize * 2, 3, wheelSize*2 + 1, wheelSize + 7, 3, wheelSize * 5} {
		e.At(at, log(at))
	}
	e.Run()
	want := []Time{3, 3, wheelSize + 7, wheelSize * 2, wheelSize*2 + 1, wheelSize * 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}
	if e.Now() != wheelSize*5 {
		t.Fatalf("clock = %d, want %d", e.Now(), Time(wheelSize*5))
	}
}

// AtCall/AfterCall behave exactly like At/After, minus the closure.
func TestAtCallDelivery(t *testing.T) {
	e := New()
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	e.AtCall(4, record, 40)
	e.AfterCall(2, record, 20)
	ev := e.AtCall(3, record, 30)
	ev.Cancel()
	e.Run()
	if len(got) != 2 || got[0] != 20 || got[1] != 40 {
		t.Fatalf("AtCall firing = %v, want [20 40]", got)
	}
}

// --- differential property test -------------------------------------------

// splitmix64 is enough pseudo-randomness for an op script; the script is
// generated once and replayed identically on both engines.
type scriptRNG uint64

func (s *scriptRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

type schedOp struct {
	kind  uint8 // 0 = schedule, 1 = cancel, 2 = step burst, 3 = runUntil
	delay Time  // schedule: delay from now; runUntil: deadline offset
	pick  int   // cancel: which previously scheduled event
}

func makeScript(seed uint64, schedules int) []schedOp {
	r := scriptRNG(seed)
	var ops []schedOp
	scheduled := 0
	for scheduled < schedules {
		switch v := r.next() % 100; {
		case v < 55: // mostly near-future, some far tail
			d := Time(r.next() % 48)
			if r.next()%8 == 0 {
				d = Time(r.next() % 4096) // overflow territory
			}
			ops = append(ops, schedOp{kind: 0, delay: d})
			scheduled++
		case v < 80 && scheduled > 0:
			ops = append(ops, schedOp{kind: 1, pick: int(r.next() % uint64(scheduled))})
		case v < 92:
			ops = append(ops, schedOp{kind: 2, delay: Time(1 + r.next()%8)})
		default:
			ops = append(ops, schedOp{kind: 3, delay: Time(r.next() % 64)})
		}
	}
	return ops
}

// The live engine and the reference heap fire an identical 100k-event
// random schedule/cancel script in the identical order.
func TestDifferentialFiringOrder(t *testing.T) {
	const schedules = 100_000
	ops := makeScript(7, schedules)

	runLive := func() []int {
		e := New()
		var log []int
		var handles []Handle
		for _, op := range ops {
			switch op.kind {
			case 0:
				id := len(handles)
				handles = append(handles, e.At(e.Now()+op.delay, func() { log = append(log, id) }))
			case 1:
				handles[op.pick].Cancel()
			case 2:
				for i := Time(0); i < op.delay; i++ {
					e.Step()
				}
			case 3:
				e.RunUntil(e.Now() + op.delay)
			}
		}
		e.Run()
		return log
	}

	runRef := func() []int {
		e := &refEngine{}
		var log []int
		var handles []*refEvent
		for _, op := range ops {
			switch op.kind {
			case 0:
				id := len(handles)
				handles = append(handles, e.at(e.now+op.delay, func() { log = append(log, id) }))
			case 1:
				handles[op.pick].cancel()
			case 2:
				for i := Time(0); i < op.delay; i++ {
					e.step()
				}
			case 3:
				e.runUntil(e.now + op.delay)
			}
		}
		e.run()
		return log
	}

	live, ref := runLive(), runRef()
	if len(live) != len(ref) {
		t.Fatalf("live fired %d events, reference fired %d", len(live), len(ref))
	}
	for i := range live {
		if live[i] != ref[i] {
			t.Fatalf("firing order diverges at position %d: live=%d ref=%d", i, live[i], ref[i])
		}
	}
}

// --- scheduling-dominated benchmarks ---------------------------------------
//
// Both benchmarks run the identical workload, shaped like the node
// delivery path at n=10k: 10k entities each with one in-flight delivery
// that reschedules itself at a short pseudo-random latency, and every
// fourth firing re-arms (cancel + schedule) a far-future retransmission
// timer. The live engine uses the closure-free AtCall path and eager
// cancel; the reference heap uses the old closure API and lazy discard,
// exactly as node.World did before the rewrite.

const benchEntities = 10_000

func BenchmarkEngineN10k(b *testing.B) {
	e := New()
	r := scriptRNG(99)
	rtos := make([]Handle, benchEntities)
	nop := func(any) {}
	var fire func(any)
	fire = func(arg any) {
		k := arg.(int)
		if k%4 == 0 {
			rtos[k].Cancel()
			rtos[k] = e.AfterCall(Time(300+r.next()%64), nop, nil)
		}
		e.AfterCall(Time(1+r.next()%8), fire, arg)
	}
	for k := 0; k < benchEntities; k++ {
		e.AfterCall(Time(1+r.next()%8), fire, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineN10kOldHeap(b *testing.B) {
	e := &refEngine{}
	r := scriptRNG(99)
	rtos := make([]*refEvent, benchEntities)
	var fire func(k int)
	fire = func(k int) {
		if k%4 == 0 {
			if rtos[k] != nil {
				rtos[k].cancel()
			}
			rtos[k] = e.after(Time(300+r.next()%64), func() {})
		}
		e.after(Time(1+r.next()%8), func() { fire(k) })
	}
	for k := 0; k < benchEntities; k++ {
		k := k
		e.after(Time(1+r.next()%8), func() { fire(k) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
