package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// churnedRing records a seeded synthetic run: n members joined in a ring
// at t=0, then one membership change per tick for ticks ticks. A leaving
// member's two ring neighbours are bridged by a repair edge; a returning
// member drops that edge and is spliced back between them. At least 3n/4
// members stay present, so every snapshot is a connected ring.
func churnedRing(n, ticks int, seed uint64) *Trace {
	tr := &Trace{}
	present := make([]bool, n)
	for v := 0; v < n; v++ {
		tr.Join(0, graph.NodeID(v))
		present[v] = true
	}
	for v := 0; v < n; v++ {
		tr.EdgeUp(0, graph.NodeID(v), graph.NodeID((v+1)%n))
	}
	// around returns v's nearest present members before and after it in
	// ring order.
	around := func(v int) (graph.NodeID, graph.NodeID) {
		p, s := (v+n-1)%n, (v+1)%n
		for !present[p] {
			p = (p + n - 1) % n
		}
		for !present[s] {
			s = (s + 1) % n
		}
		return graph.NodeID(p), graph.NodeID(s)
	}
	r := rng.New(seed)
	count := n
	for t := Time(1); t <= Time(ticks); t++ {
		v := r.Intn(n)
		id := graph.NodeID(v)
		switch {
		case !present[v]:
			present[v] = true
			count++
			p, s := around(v)
			tr.Join(t, id)
			tr.EdgeDown(t, p, s)
			tr.EdgeUp(t, p, id)
			tr.EdgeUp(t, id, s)
		case count > 3*n/4:
			present[v] = false
			count--
			p, s := around(v)
			tr.Leave(t, id)
			tr.EdgeUp(t, p, s)
		}
	}
	tr.Close(Time(ticks))
	return tr
}

// BenchmarkInferClass infers the class of a 500-tick churned 64-ring:
// nearly every tick is a stable period whose diameter the inference checks
// against its running maximum, so the geography judge dominates.
func BenchmarkInferClass(b *testing.B) {
	tr := churnedRing(64, 500, 1)
	if c := InferClass(tr); c.Geo != GeoDiameterKnown || c.D == 0 {
		b.Fatalf("churned ring inferred as %s, want a known positive diameter", c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InferClass(tr)
	}
}

// BenchmarkCheckClass checks the same churned 64-ring against a declared
// known diameter below the ring's, so the check half of the judge — the
// floored diameter queries and the violation texts — is gated too.
func BenchmarkCheckClass(b *testing.B) {
	tr := churnedRing(64, 500, 1)
	c := Class{Size: SizeBoundedUnknown, Geo: GeoDiameterKnown, D: 24}
	if rep := CheckClass(tr, c); rep.OK() || !rep.DiameterDefined {
		b.Fatalf("churned ring checked against %s: %d violations, diameter defined %v; want violations on a connected run",
			c, len(rep.Violations), rep.DiameterDefined)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CheckClass(tr, c)
	}
}

// BenchmarkRecordFull records under full retention: the 24-byte record,
// the tick column and the tag table, a fresh trace every 65 536 events so
// the chunks' allocation is in every op's bill.
func BenchmarkRecordFull(b *testing.B) {
	benchmarkRecord(b, false)
}

// BenchmarkRecordCountOnly records under count-only retention: the
// per-tag aggregates alone, which allocate nothing once the tags are known.
func BenchmarkRecordCountOnly(b *testing.B) {
	benchmarkRecord(b, true)
}

func benchmarkRecord(b *testing.B, countOnly bool) {
	const perTrace = 1 << 16
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perTrace == 0 {
			tr = &Trace{}
			tr.SetCountOnly(countOnly)
		}
		recordMix(tr, i%perTrace, i%perTrace+1, 64)
	}
}
