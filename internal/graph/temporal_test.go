package graph

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

func TestTemporalSnapshot(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 1})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 2})
	tg.Record(TemporalEvent{At: 5, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 10, Kind: NodeLeave, U: 2})

	g := tg.Snapshot(3)
	if !g.HasNode(1) || !g.HasNode(2) || g.HasEdge(1, 2) {
		t.Fatal("snapshot at t=3 wrong")
	}
	g = tg.Snapshot(5)
	if !g.HasEdge(1, 2) {
		t.Fatal("snapshot at t=5 missing edge")
	}
	g = tg.Snapshot(10)
	if g.HasNode(2) || g.HasEdge(1, 2) {
		t.Fatal("snapshot at t=10 should have node 2 removed")
	}
}

func TestTemporalUnsortedRecord(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 10, Kind: NodeJoin, U: 2})
	tg.Record(TemporalEvent{At: 5, Kind: NodeJoin, U: 1})
	evs := tg.Events()
	if evs[0].At != 5 || evs[1].At != 10 {
		t.Fatalf("Events not sorted: %+v", evs)
	}
	if tg.Len() != 2 {
		t.Fatalf("Len = %d", tg.Len())
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		NodeJoin: "join", NodeLeave: "leave", EdgeUp: "edge-up", EdgeDown: "edge-down",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind has empty String")
	}
}

// A message can travel over edges that never coexist, provided they appear
// in the right temporal order (the essence of journeys).
func TestReachableViaTemporalOrder(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 1})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 2})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 3})
	tg.Record(TemporalEvent{At: 1, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 2, Kind: EdgeDown, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 3, Kind: EdgeUp, U: 2, V: 3})

	reach := tg.ReachableFrom(1, 0, 10)
	if !reach[2] || !reach[3] {
		t.Fatalf("journey 1->2->3 not found: %v", reach)
	}
}

// The reverse order does not admit a journey: edge 2-3 exists only before
// edge 1-2, so information from 1 can never reach 3.
func TestNotReachableAgainstTemporalOrder(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 1})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 2})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 3})
	tg.Record(TemporalEvent{At: 1, Kind: EdgeUp, U: 2, V: 3})
	tg.Record(TemporalEvent{At: 2, Kind: EdgeDown, U: 2, V: 3})
	tg.Record(TemporalEvent{At: 3, Kind: EdgeUp, U: 1, V: 2})

	reach := tg.ReachableFrom(1, 0, 10)
	if !reach[2] {
		t.Fatalf("direct neighbor not reached: %v", reach)
	}
	if reach[3] {
		t.Fatalf("time-respecting reachability violated: %v", reach)
	}
}

func TestReachabilityStopsAtLeave(t *testing.T) {
	tg := NewTemporal()
	for _, v := range []NodeID{1, 2, 3} {
		tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: v})
	}
	tg.Record(TemporalEvent{At: 1, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 2, Kind: NodeLeave, U: 2})
	// Node 2 learned the information, then left; a later edge from the
	// departed node's old position must not relay.
	tg.Record(TemporalEvent{At: 3, Kind: EdgeUp, U: 2, V: 3})

	reach := tg.ReachableFrom(1, 0, 10)
	if !reach[2] {
		t.Fatal("node 2 should have learned before leaving")
	}
	// Note: the EdgeUp at t=3 re-adds node 2 to the graph (a rejoin). A
	// rejoining node in this model is a new session of the same entity and
	// does relay; the model tracks entities, not sessions. So 3 IS reached.
	if !reach[3] {
		t.Fatal("rejoined entity should relay")
	}
}

func TestReachableFromWindow(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 5, Kind: EdgeDown, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 6, Kind: EdgeUp, U: 2, V: 3})
	// Window starting after the 1-2 edge went down: 1 is isolated.
	reach := tg.ReachableFrom(1, 6, 10)
	if reach[2] || reach[3] {
		t.Fatalf("stale edge used: %v", reach)
	}
	if !reach[1] {
		t.Fatal("source missing from its own reach set")
	}
}

func TestInitialStablePeriodSpreads(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 5, Kind: EdgeDown, U: 1, V: 2})
	// Window [1, 10]: the edge exists during [1, 5), so 2 must be reached
	// even though the only in-window event is the edge removal.
	reach := tg.ReachableFrom(1, 1, 10)
	if !reach[2] {
		t.Fatalf("initial stable period ignored: %v", reach)
	}
}

func TestEarliestArrival(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 1})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 2})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 3})
	tg.Record(TemporalEvent{At: 5, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 20, Kind: EdgeUp, U: 2, V: 3})
	arr := tg.EarliestArrival(1, 0, 100)
	if arr[1] != 0 {
		t.Errorf("arrival[src] = %d, want 0", arr[1])
	}
	if arr[2] != 5 {
		t.Errorf("arrival[2] = %d, want 5 (edge appears then)", arr[2])
	}
	if arr[3] != 20 {
		t.Errorf("arrival[3] = %d, want 20", arr[3])
	}
}

func TestEarliestArrivalConsistentWithReach(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 3, Kind: EdgeDown, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 4, Kind: EdgeUp, U: 2, V: 3})
	tg.Record(TemporalEvent{At: 6, Kind: EdgeUp, U: 3, V: 4})
	reach := tg.ReachableFrom(1, 0, 10)
	arr := tg.EarliestArrival(1, 0, 10)
	if len(reach) != len(arr) {
		t.Fatalf("reach has %d nodes, arrivals %d", len(reach), len(arr))
	}
	for v := range reach {
		at, ok := arr[v]
		if !ok {
			t.Fatalf("reached node %d has no arrival time", v)
		}
		if at < 0 || at > 10 {
			t.Fatalf("arrival[%d] = %d outside window", v, at)
		}
	}
}

func TestEarliestArrivalUnreachableAbsent(t *testing.T) {
	tg := NewTemporal()
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 1})
	tg.Record(TemporalEvent{At: 0, Kind: NodeJoin, U: 9})
	arr := tg.EarliestArrival(1, 0, 10)
	if _, ok := arr[9]; ok {
		t.Fatal("isolated node has an arrival time")
	}
}

func TestReachabilityFractionStatic(t *testing.T) {
	tg := NewTemporal()
	// A static connected triangle: everyone reaches everyone.
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 2, V: 3})
	f := tg.ReachabilityFraction(0, 10)
	if f != 1.0 {
		t.Fatalf("static connected fraction = %v, want 1.0", f)
	}
}

func TestReachabilityFractionPartitioned(t *testing.T) {
	tg := NewTemporal()
	// Two components that never connect.
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 1, V: 2})
	tg.Record(TemporalEvent{At: 0, Kind: EdgeUp, U: 3, V: 4})
	f := tg.ReachabilityFraction(0, 10)
	if f != 0.5 {
		t.Fatalf("two-halves fraction = %v, want 0.5", f)
	}
}

func TestReachabilityFractionEmpty(t *testing.T) {
	if f := NewTemporal().ReachabilityFraction(0, 10); f != 0 {
		t.Fatalf("empty fraction = %v", f)
	}
}

func BenchmarkTemporalReach(b *testing.B) {
	tg := NewTemporal()
	for i := int64(0); i < 200; i++ {
		tg.Record(TemporalEvent{At: i, Kind: EdgeUp, U: NodeID(i % 50), V: NodeID((i + 7) % 50)})
		if i%3 == 0 {
			tg.Record(TemporalEvent{At: i, Kind: EdgeDown, U: NodeID((i + 1) % 50), V: NodeID((i + 8) % 50)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.ReachableFrom(0, 0, 200)
	}
}

// randomTemporal builds a seeded evolving graph over a small ID space:
// joins, leaves, edge flips, several events per timestamp and gaps
// between timestamps.
func randomTemporal(r *rng.Rand) *Temporal {
	tg := NewTemporal()
	at := int64(0)
	for i, n := 0, 5+r.Intn(40); i < n; i++ {
		if r.Bool(0.6) {
			at += int64(r.Intn(4))
		}
		u, v := NodeID(r.Intn(8)), NodeID(r.Intn(8))
		kind := EventKind(r.Intn(4))
		if (kind == EdgeUp || kind == EdgeDown) && u == v {
			kind = NodeJoin
		}
		tg.Record(TemporalEvent{At: at, Kind: kind, U: u, V: v})
	}
	return tg
}

// snapshotByHand applies every event up to t to a fresh graph, one by one,
// without the replay.
func snapshotByHand(tg *Temporal, t int64) *Graph {
	g := New()
	for _, ev := range tg.Events() {
		if ev.At <= t {
			apply(g, ev)
		}
	}
	return g
}

func sameGraph(a, b *Graph) bool {
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		return false
	}
	for _, v := range a.Nodes() {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

// TestReplayRandomized pins what Snapshot, ReachableFrom and
// EarliestArrival owe the one replay, on a few hundred random evolving
// graphs: a snapshot is the graph the visitor last saw, both equal the
// log applied by hand, reachability is the key set of earliest arrival,
// and earliest arrival is a flood over hand-built snapshots.
func TestReplayRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		tg := randomTemporal(r)
		start, end := int64(r.Intn(10)), int64(10+r.Intn(40))
		src := NodeID(r.Intn(8))

		// The stable periods of the window, as the visitor sees them.
		var times []int64
		var seen []*Graph
		tg.Replay(start, end, func(at int64, g *Graph) {
			times = append(times, at)
			seen = append(seen, g.Clone())
		})
		if times[0] != start || !sameGraph(seen[0], snapshotByHand(tg, start-1)) {
			t.Fatalf("seed %d: replay does not enter the window on the graph before %d", seed, start)
		}
		for q := start; q <= end; q++ {
			last := 0
			for i, at := range times {
				if i > 0 && at <= q {
					last = i
				}
			}
			snap := tg.Snapshot(q)
			if !sameGraph(snap, seen[last]) || !sameGraph(snap, snapshotByHand(tg, q)) {
				t.Fatalf("seed %d: Snapshot(%d) differs from the visitor's graph or the hand-applied log", seed, q)
			}
		}

		want := make(map[NodeID]int64)
		for i, at := range times {
			g := seen[i]
			if _, ok := want[src]; !ok && g.HasNode(src) {
				want[src] = at
			}
			for grew := true; grew; {
				grew = false
				for v := range want {
					for u := range g.BFS(v) {
						if _, ok := want[u]; !ok {
							want[u], grew = at, true
						}
					}
				}
			}
		}
		arrival := tg.EarliestArrival(src, start, end)
		if !reflect.DeepEqual(arrival, want) {
			t.Fatalf("seed %d: EarliestArrival(%d, %d, %d) = %v, want %v", seed, src, start, end, arrival, want)
		}
		reach := tg.ReachableFrom(src, start, end)
		if len(reach) != len(arrival) {
			t.Fatalf("seed %d: ReachableFrom has %d nodes, EarliestArrival %d", seed, len(reach), len(arrival))
		}
		for v := range arrival {
			if !reach[v] {
				t.Fatalf("seed %d: %d has an arrival time but is not reachable", seed, v)
			}
		}
	}
}
