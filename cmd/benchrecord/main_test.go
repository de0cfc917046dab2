package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkFoo-8   \t 1234 \t 987654 ns/op \t 45678 B/op \t 123 allocs/op")
	if !ok || r.Name != "BenchmarkFoo-8" || r.Iterations != 1234 ||
		r.NsPerOp != 987654 || r.BytesPerOp != 45678 || r.AllocsPerOp != 123 {
		t.Fatalf("parsed %+v, ok=%v", r, ok)
	}
	for _, bad := range []string{"ok  \trepro/internal/node\t9.5s", "PASS", "BenchmarkNoIters ns/op", ""} {
		if _, ok := parseLine(bad); ok {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 10}})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 115, AllocsPerOp: 10}}
	if !check(run, base, 0.20, 0.25, false) {
		t.Fatal("in-tolerance run failed the check")
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100}})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 150}}
	if check(run, base, 0.20, 0.25, false) {
		t.Fatal("50% ns/op regression passed a 20% gate")
	}
}

func TestCheckFailsOnAllocGrowth(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 0}})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 5}}
	if check(run, base, 0.20, 0.25, false) {
		t.Fatal("zero-alloc baseline growing to 5 allocs/op passed")
	}
}

// The satellite fix: a baseline entry that did not run fails the check
// unless -allow-missing says it is intended.
func TestCheckFailsOnMissingBaselineEntry(t *testing.T) {
	base := writeBaseline(t, []Result{
		{Name: "p.BenchmarkA-8", NsPerOp: 100},
		{Name: "p.BenchmarkGone-8", NsPerOp: 200},
	})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100}}
	if check(run, base, 0.20, 0.25, false) {
		t.Fatal("missing baseline benchmark passed without -allow-missing")
	}
	if !check(run, base, 0.20, 0.25, true) {
		t.Fatal("-allow-missing did not tolerate the missing benchmark")
	}
}

// New benchmarks (in the run, not the baseline) never fail: that is how
// a baseline roll-forward stays a one-way ratchet.
func TestCheckToleratesNewBenchmarks(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100}})
	run := []Result{
		{Name: "p.BenchmarkA-8", NsPerOp: 100},
		{Name: "p.BenchmarkNew-8", NsPerOp: 999999},
	}
	if !check(run, base, 0.20, 0.25, false) {
		t.Fatal("a new benchmark failed the check")
	}
}

func TestCheckFailsOnBytesGrowth(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, BytesPerOp: 4096, AllocsPerOp: 10}})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, BytesPerOp: 8192, AllocsPerOp: 10}}
	if check(run, base, 0.20, 0.25, false) {
		t.Fatal("B/op doubling at an unchanged allocs/op passed a 25% bytes gate")
	}
}

// Small baselines grow by a few words when the runtime's bookkeeping
// moves; growth within the absolute slack of 256 B/op never fails, even
// where it is a large fraction.
func TestCheckToleratesBytesWithinSlack(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, BytesPerOp: 64}})
	run := []Result{{Name: "p.BenchmarkA-8", NsPerOp: 100, BytesPerOp: 320}}
	if !check(run, base, 0.20, 0.25, false) {
		t.Fatal("growth of 256 B/op, within the absolute slack, failed the check")
	}
}
