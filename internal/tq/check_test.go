package tq

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Check judges a fully-retained trace: it replays every event through a
// fresh StreamChecker, the way a live sink sees them.
func Check(tr *core.Trace) Report {
	sc := NewStreamChecker()
	tr.Replay(sc.Observe)
	return sc.Finish()
}

// mark records a checker-visible mark event on a hand-built trace.
func mark(tr *core.Trace, at int64, tag string) {
	tr.Mark(at, 1, tag)
}

func TestCheckerJudgesAtReadStart(t *testing.T) {
	tr := &core.Trace{}
	mark(tr, 1, "tq.wstart:1:5")
	mark(tr, 2, "tq.wend:1:1")
	// Read starts BEFORE write 2 completes: returning write 1 is regular
	// even though write 2 certifies before the read's result mark.
	mark(tr, 3, "tq.rstart:10")
	mark(tr, 4, "tq.wstart:2:6")
	mark(tr, 5, "tq.wend:2:1")
	mark(tr, 6, "tq.read:10:1:5:ok")
	rep := Check(tr)
	if !rep.OK() || rep.Stale != 0 {
		t.Fatalf("concurrent read misjudged: %+v", rep)
	}
	if rep.Reads != 1 || rep.WriteQuorums != 2 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.MeanReadLatency() != 3 || rep.MeanWriteLatency() != 1 {
		t.Fatalf("latency: read %v write %v", rep.MeanReadLatency(), rep.MeanWriteLatency())
	}
}

func TestCheckerFlagsStaleAndFabricated(t *testing.T) {
	tr := &core.Trace{}
	mark(tr, 1, "tq.wstart:1:5")
	mark(tr, 2, "tq.wend:1:1")
	mark(tr, 3, "tq.wstart:2:6")
	mark(tr, 4, "tq.wend:2:1")
	// Stale: read starts after write 2 completed but returns write 1.
	mark(tr, 5, "tq.rstart:10")
	mark(tr, 6, "tq.read:10:1:5:soft")
	// Fabricated: a tag never written.
	mark(tr, 7, "tq.rstart:11")
	mark(tr, 8, "tq.read:11:9:0:ok")
	// Unfinished: a start with no result.
	mark(tr, 9, "tq.rstart:12")
	// No-value soft fail.
	mark(tr, 10, "tq.rstart:13")
	mark(tr, 11, "tq.read-none:13")
	mark(tr, 12, "tq.retry:14:1")
	rep := Check(tr)
	if rep.Stale != 1 || rep.Fabricated != 1 || rep.MaxLag != 1 {
		t.Fatalf("violations: %+v", rep)
	}
	if rep.Soft != 1 || rep.NoValue != 1 || rep.Unfinished != 1 || rep.Retries != 1 {
		t.Fatalf("bookkeeping: %+v", rep)
	}
	if rep.OK() {
		t.Fatal("OK() on a violating trace")
	}
	if got := rep.ViolationRate(); got != 1.0 {
		t.Fatalf("ViolationRate() = %v, want 1.0 (2 violations / 2 reads)", got)
	}
}

func TestCheckerIgnoresForeignAndMalformedMarks(t *testing.T) {
	tr := &core.Trace{}
	mark(tr, 1, "dynreg.read:4:2")
	mark(tr, 2, "tq.wstart:bogus:1")
	mark(tr, 3, "tq.read:1")
	mark(tr, 4, "pexconv")
	if rep := Check(tr); rep != (Report{}) {
		t.Fatalf("foreign marks counted: %+v", rep)
	}
}

// churnyRegisterRun runs a deterministic churning register workload and
// returns its report, judged either by the batch checker over a fully
// retained trace or by the live streaming sink over a count-only trace.
func churnyRegisterRun(seed uint64, countOnly bool) Report {
	const n, horizon = 16, 500
	c := NewClient(Config{Seed: seed})
	e := sim.New()
	w := node.NewWorld(e, topology.NewRing(seed), c.Factory(), node.Config{MinLatency: 1, MaxLatency: 3, Seed: seed})
	var sc *StreamChecker
	if countOnly {
		w.Trace.SetCountOnly(true)
		sc = NewStreamChecker()
		w.Trace.Stream(sc.Observe)
	}
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 0)
	est := c.Attach(w)
	defer est.Stop()

	next := graph.NodeID(n + 1)
	gone := graph.NodeID(2) // spare the writer at 1
	churner := e.Every(12, func() {
		w.Join(next)
		next++
		if gone != 1 {
			w.Leave(gone)
		}
		gone++
	})
	defer churner.Stop()

	val := 0.0
	writer := e.Every(40, func() {
		val++
		c.Write(w, 1, val)
	})
	defer writer.Stop()
	readTurn := 0
	reader := e.Every(7, func() {
		present := w.Present()
		c.Read(w, present[readTurn%len(present)])
		readTurn++
	})
	defer reader.Stop()

	e.RunUntil(horizon)
	w.Close()
	if countOnly {
		if len(w.Trace.Events()) != 0 {
			panic("count-only trace retained events")
		}
		return sc.Finish()
	}
	return Check(w.Trace)
}

// TestStreamMatchesBatch is the scaling differential: the live streaming
// sink over a count-only trace must reach the very same verdict the
// batch checker reads from a fully retained trace of the identical
// seeded run.
func TestStreamMatchesBatch(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		batch := churnyRegisterRun(seed, false)
		stream := churnyRegisterRun(seed, true)
		if batch != stream {
			t.Fatalf("seed %d: stream verdict diverged\nbatch:  %+v\nstream: %+v", seed, batch, stream)
		}
		if batch.Reads == 0 || batch.WriteQuorums == 0 {
			t.Fatalf("seed %d: degenerate run: %+v", seed, batch)
		}
	}
}

// TestLiveSinkMatchesPostHocScan: attach the sink to a fully-retained
// trace AND scan the same trace afterwards — one run, two judgment
// paths, same report.
func TestLiveSinkMatchesPostHocScan(t *testing.T) {
	const seed = 42
	c := NewClient(Config{Seed: seed})
	e := sim.New()
	w := node.NewWorld(e, topology.NewRing(seed), c.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: seed})
	sc := NewStreamChecker()
	w.Trace.Stream(sc.Observe)
	for i := 1; i <= 12; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 0)
	for k := 0; k < 4; k++ {
		v := float64(k)
		e.At(sim.Time(30+60*k), func() { c.Write(w, 1, v) })
	}
	for k := 0; k < 20; k++ {
		id := graph.NodeID(1 + k%12)
		e.At(sim.Time(35+11*k), func() { c.Read(w, id) })
	}
	e.RunUntil(400)
	w.Close()
	live, scan := sc.Finish(), Check(w.Trace)
	if live != scan {
		t.Fatalf("live sink and post-hoc scan diverged\nlive: %+v\nscan: %+v", live, scan)
	}
}

func TestReportRates(t *testing.T) {
	rep := Report{Reads: 8, Stale: 1, Fabricated: 1, Soft: 2, NoValue: 2}
	if got := rep.ViolationRate(); got != 0.25 {
		t.Fatalf("ViolationRate = %v", got)
	}
	if (Report{}).ViolationRate() != 0 {
		t.Fatal("zero-read rates must be 0")
	}
}

func BenchmarkTQWire(b *testing.B) {
	pr := Probe{Op: 12, Kind: KindWrite, Attempt: 2, TTL: 6, Tag: 9, Val: 3.25, Deadline: 480,
		Path: []graph.NodeID{1, 2, 3, 4, 5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeProbe(pr)
		if _, err := DecodeProbe(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTQCheckStream(b *testing.B) {
	// Pre-render a mark workload once; the benchmark measures the sink.
	events := make([]core.TraceEvent, 0, 4096)
	tag := uint64(0)
	for i := 0; i < 512; i++ {
		tag++
		events = append(events,
			core.TraceEvent{At: core.Time(4 * i), Kind: core.TMark, Tag: fmt.Sprintf("tq.wstart:%d:1", tag)},
			core.TraceEvent{At: core.Time(4*i + 1), Kind: core.TMark, Tag: fmt.Sprintf("tq.rstart:%d", tag)},
			core.TraceEvent{At: core.Time(4*i + 2), Kind: core.TMark, Tag: fmt.Sprintf("tq.wend:%d:1", tag)},
			core.TraceEvent{At: core.Time(4*i + 3), Kind: core.TMark, Tag: fmt.Sprintf("tq.read:%d:%d:1:ok", tag, tag)},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewStreamChecker()
		for _, ev := range events {
			sc.Observe(ev)
		}
		if rep := sc.Finish(); !rep.OK() {
			b.Fatal("violations in synthetic workload")
		}
	}
}
