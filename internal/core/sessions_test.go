package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// lifecycleTrace scripts one entity per lifecycle shape the session
// reconstruction distinguishes; the trace closes at 60, so sessions open
// at the end run to 61.
//
//	1 crash -> recover      crash 10, announced recovery 20
//	2 leave -> rejoin       leave 12, announced rejoin 22
//	3 crash, never returns  crash 14
//	4 leave, never returns  leave 16
//	5 double join           joins at 0 and again at 5
//	6 leave while closed    leaves at 3 before ever joining, joins at 6
//	7 unannounced join after a crash  crash 18, bare join 28
//	8 unannounced join after a leave  leave 24, bare join 34
func lifecycleTrace() *Trace {
	tr := &Trace{}
	for _, p := range []graph.NodeID{1, 2, 3, 4, 5, 7, 8} {
		tr.Join(0, p)
	}
	tr.Leave(3, 6)
	tr.Join(5, 5)
	tr.Join(6, 6)
	tr.Mark(10, 1, MarkCrash)
	tr.Leave(10, 1)
	tr.Leave(12, 2)
	tr.Mark(14, 3, MarkCrash)
	tr.Leave(14, 3)
	tr.Leave(16, 4)
	tr.Mark(18, 7, MarkCrash)
	tr.Leave(18, 7)
	tr.Mark(20, 1, MarkRecover)
	tr.Join(20, 1)
	tr.Mark(22, 2, MarkRejoin)
	tr.Join(22, 2)
	tr.Leave(24, 8)
	tr.Join(28, 7)
	tr.Join(34, 8)
	tr.Close(60)
	return tr
}

func TestSessionReconstructions(t *testing.T) {
	type sessions = map[graph.NodeID][]Interval
	// What every bridging notion agrees on.
	common := func() sessions {
		return sessions{
			3: {{0, 14}},
			4: {{0, 16}},
			5: {{0, 61}},
			6: {{6, 61}},
		}
	}
	with := func(extra sessions) sessions {
		out := common()
		for p, ivs := range extra {
			out[p] = ivs
		}
		return out
	}
	tr := lifecycleTrace()
	cases := []struct {
		name string
		got  sessions
		want sessions
	}{
		{"Sessions", tr.Sessions(), with(sessions{
			1: {{0, 10}, {20, 61}},
			2: {{0, 12}, {22, 61}},
			7: {{0, 18}, {28, 61}},
			8: {{0, 24}, {34, 61}},
		})},
		// Quirk, shared with otq's stream checker and pinned, not endorsed:
		// a join no mark announced DISCARDS the suspended interval before
		// it. Entity 7's presence over [0, 18) vanishes from both bridged
		// accountings, and entity 8's over [0, 24) from the rejoin one —
		// plain Sessions keeps both.
		{"SessionsBridgingRecovery", tr.SessionsBridgingRecovery(), with(sessions{
			1: {{0, 61}},
			2: {{0, 12}, {22, 61}},
			7: {{28, 61}},
			8: {{0, 24}, {34, 61}},
		})},
		{"SessionsBridgingRejoin", tr.SessionsBridgingRejoin(), with(sessions{
			1: {{0, 61}},
			2: {{0, 61}},
			7: {{28, 61}},
			8: {{34, 61}},
		})},
	}
	for _, tc := range cases {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestCoverageQueries(t *testing.T) {
	tr := lifecycleTrace()
	cases := []struct {
		name string
		got  []graph.NodeID
		want []graph.NodeID
	}{
		{"PresentAt(15)", tr.PresentAt(15), []graph.NodeID{4, 5, 6, 7, 8}},
		{"PresentAt(61)", tr.PresentAt(61), nil},
		{"EverPresentBetween(17, 21)", tr.EverPresentBetween(17, 21), []graph.NodeID{1, 5, 6, 7, 8}},
		{"StableBetween(8, 25)", tr.StableBetween(8, 25), []graph.NodeID{5, 6}},
		{"StableBetweenBridged(8, 25)", tr.StableBetweenBridged(8, 25), []graph.NodeID{1, 5, 6}},
		{"StableBetweenRejoinBridged(8, 25)", tr.StableBetweenRejoinBridged(8, 25), []graph.NodeID{1, 2, 5, 6}},
		// The discard quirk again: 7 and 8 were present throughout [2, 9].
		{"StableBetween(2, 9)", tr.StableBetween(2, 9), []graph.NodeID{1, 2, 3, 4, 5, 7, 8}},
		{"StableBetweenBridged(2, 9)", tr.StableBetweenBridged(2, 9), []graph.NodeID{1, 2, 3, 4, 5, 8}},
		{"StableBetweenRejoinBridged(2, 9)", tr.StableBetweenRejoinBridged(2, 9), []graph.NodeID{1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestLeaveWhileClosedKeepsCrashMark pins the other shared quirk: a Leave
// of an entity with no open session is ignored WITHOUT consuming a crash
// mark recorded just before it, so the entity's next, plain Leave is read
// as a crash — and the bare Join after it discards the session.
func TestLeaveWhileClosedKeepsCrashMark(t *testing.T) {
	tr := &Trace{}
	tr.Mark(1, 9, MarkCrash)
	tr.Leave(1, 9)
	tr.Join(2, 9)
	tr.Leave(10, 9)
	tr.Join(20, 9)
	tr.Close(30)
	if got, want := tr.Sessions()[9], []Interval{{2, 10}, {20, 31}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sessions = %v, want %v", got, want)
	}
	if got, want := tr.SessionsBridgingRecovery()[9], []Interval{{20, 31}}; !reflect.DeepEqual(got, want) {
		t.Errorf("SessionsBridgingRecovery = %v, want %v", got, want)
	}
}

// TestClassReadersDoNotCopyTheLog: on a trace that is nearly all message
// events, InferClass and CheckClass allocate less than one copy of the
// event log — they walk it in place and materialize only its topology.
func TestClassReadersDoNotCopyTheLog(t *testing.T) {
	tr := &Trace{}
	const n = 10
	for i := 1; i <= n; i++ {
		tr.Join(0, graph.NodeID(i))
	}
	for i := 1; i <= n; i++ {
		tr.EdgeUp(0, graph.NodeID(i), graph.NodeID(i%n+1))
	}
	for i := 0; i < 50000; i++ {
		p, q := graph.NodeID(i%n+1), graph.NodeID((i+1)%n+1)
		if i%2 == 0 {
			tr.Send(Time(1+i/100), p, q, "m")
		} else {
			tr.Deliver(Time(1+i/100), q, p, "m")
		}
	}
	tr.Close(1000)
	oneCopy := uint64(tr.Len()) * uint64(unsafe.Sizeof(TraceEvent{}))

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var c Class
	if got := allocated(func() { c = InferClass(tr) }); got >= oneCopy {
		t.Errorf("InferClass allocated %d bytes; one copy of the log is %d", got, oneCopy)
	}
	if want := (Class{Size: SizeStatic, B: n, Geo: GeoDiameterKnown, D: n / 2, EventuallyStable: true}); c != want {
		t.Fatalf("InferClass = %v, want %v", c, want)
	}
	var rep CheckReport
	if got := allocated(func() { rep = CheckClass(tr, c) }); got >= oneCopy {
		t.Errorf("CheckClass allocated %d bytes; one copy of the log is %d", got, oneCopy)
	}
	if !rep.OK() {
		t.Errorf("CheckClass rejects the inferred class: %v", rep.Violations)
	}
}
