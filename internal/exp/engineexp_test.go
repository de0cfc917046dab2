package exp

import (
	"strings"
	"testing"
)

// The acceptance bar for the engine rewrite: a 10k-entity world with the
// pex membership layer live and churn flowing runs to its horizon.
func TestE28TenKWorldCompletes(t *testing.T) {
	if raceDetectorOn {
		t.Skip("a 10k-entity world takes minutes under the race detector; raced E28 coverage comes from TestAllExperimentsRun/E28")
	}
	cell := e28Cell{n: 10000, horizon: 40, lite: true}
	res := e28Run(1, cell)
	if res.peak < 10000 {
		t.Fatalf("peak concurrency %d, want >= 10000", res.peak)
	}
	if res.msgs == 0 || res.delivered == 0 {
		t.Fatalf("no pex traffic: %d sent / %d delivered", res.msgs, res.delivered)
	}
	if res.events < uint64(res.msgs) {
		t.Fatalf("events %d below message count %d", res.events, res.msgs)
	}
	if float64(res.delivered)/float64(res.msgs) < 0.9 {
		t.Fatalf("delivered fraction %.3f, want >= 0.9 on a loss-free channel",
			float64(res.delivered)/float64(res.msgs))
	}
}

// The deterministic columns replay bit-identically: same seed, same
// events, same messages, same membership peak.
func TestE28Deterministic(t *testing.T) {
	cell := e28Cell{n: 1000, horizon: 60}
	a, b := e28Run(3, cell), e28Run(3, cell)
	if a.events != b.events || a.msgs != b.msgs || a.delivered != b.delivered ||
		a.peak != b.peak || a.converged != b.converged || a.outside != b.outside {
		t.Fatalf("replays differ:\n%+v\n%+v", a, b)
	}
}

// Count-only retention changes what the trace keeps, never what the
// world does: the lite twin of a run reports identical counters.
func TestE28LiteTraceCountersMatch(t *testing.T) {
	cell := e28Cell{n: 500, horizon: 60}
	full := e28Run(5, cell)
	cell.lite = true
	lite := e28Run(5, cell)
	if full.events != lite.events || full.msgs != lite.msgs ||
		full.delivered != lite.delivered || full.peak != lite.peak {
		t.Fatalf("lite retention diverged from full:\n%+v\n%+v", full, lite)
	}
}

func TestE28QuickReport(t *testing.T) {
	if raceDetectorOn {
		t.Skip("duplicates TestAllExperimentsRun/E28 under the race detector")
	}
	rep := E28(quick)
	out := rep.String()
	if !strings.Contains(out, "E28") || !strings.Contains(out, "1000") {
		t.Fatalf("report missing expected rows:\n%s", out)
	}
}

func BenchmarkE28ScaleWorld(b *testing.B) {
	cell := e28Cell{n: 1000, horizon: 48, lite: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e28Run(uint64(i+1), cell)
	}
}
