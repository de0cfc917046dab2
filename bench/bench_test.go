package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestMain lets the test binary stand in for the benchmark's when a run
// under test starts its set-up children.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupEnv); spec != "" {
		setupChildMain(spec)
		return
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the tables the
// program reports from in agreement, inside the driver's limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) || len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d (2 to 8 allowed)", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, wl := range workloads {
		unique(wl.name)
		if got := bf.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the program %q / %q", i, got.Name, got.Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, 200 allowed", wl.name, len(wl.why))
		}
	}
	check := func(kind string, defs []metricDef, decl []declared, max int) {
		t.Helper()
		if len(defs) != len(decl) || len(defs) < 1 || len(defs) > max {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program reports %d (1 to %d allowed)", kind, len(decl), len(defs), max)
		}
		for i, d := range defs {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
			}
			if d.Better != lower && d.Better != higher {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if got := decl[i]; got != (declared{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd, 16)
	check("per_layer", perLayer, bf.PerLayer, 128)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower better: %+v", endToEnd[0])
	}
}

// TestGoldenCoversEveryRow: a workload or ladder row without a pinned
// digest would be checked against nothing at the default seed.
func TestGoldenCoversEveryRow(t *testing.T) {
	all := loadGolden()
	for _, wl := range workloads {
		g, ok := all[wl.name]
		if !ok || g.Digest == "" || g.Events == 0 {
			t.Errorf("golden.json has no digest for %s", wl.name)
			continue
		}
		for level, row := range wl.rows {
			if g.Ladder[row.name] == "" {
				t.Errorf("golden.json has no digest for %s ladder row %s", wl.name, row.name)
			}
			if level == wl.top && g.Ladder[row.name] != g.Digest {
				t.Errorf("%s: ladder row %s is the workload itself but its digest differs", wl.name, row.name)
			}
		}
	}
}

// TestTinyPass runs every workload at smoke size through both modes.
func TestTinyPass(t *testing.T) {
	const seed = 7
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			e2e := runEndToEnd(wl, wl.tiny, seed, 0)
			first := runLayers(wl, wl.tiny, seed)
			second := runLayers(wl, wl.tiny, seed)
			for _, r := range []*leafResult{e2e, first, second} {
				if r.Failed > 0 || r.Attempted == 0 {
					t.Fatalf("trace %d: %d of %d executions failed: %v", r.Trace, r.Failed, r.Attempted, r.Errors)
				}
			}
			emitted := func(r *leafResult, defs []metricDef) {
				t.Helper()
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace %d emitted %d metrics, %d declared", r.Trace, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("trace %d: metric %s emitted as %+v (present %v), want a finite value in %s", r.Trace, d.Name, v, ok, d.Unit)
					}
				}
			}
			emitted(e2e, endToEnd)
			emitted(first, perLayer)
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			if e2e.Digest != first.Digest || first.Digest != second.Digest {
				t.Errorf("digests differ across passes: %s %s %s", e2e.Digest, first.Digest, second.Digest)
			}
			for _, d := range perLayer {
				if a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value; d.Exact && a != b {
					t.Errorf("exact metric %s moved between two passes: %v then %v", d.Name, a, b)
				}
			}
			m := func(name string) float64 { return first.Metrics[name].Value }
			for _, q := range []string{"cpu_s", "allocs", "events"} {
				sum := m("ladder.base_" + q)
				for _, layer := range ladderLayers {
					sum += m(layer + ".marginal_" + q)
				}
				if top := m("ladder.top_" + q); math.Abs(sum-top) > 1e-9*math.Max(1, math.Abs(top)) {
					t.Errorf("ladder %s: base plus marginals is %v, the top row %v", q, sum, top)
				}
			}
			if len(first.Spans) == 0 || first.Spans[0].Parent != -1 {
				t.Errorf("traced run recorded no root span: %+v", first.Spans)
			}
		})
	}
}
