// Command benchrecord reads `go test -bench` output on stdin and writes
// the benchmark results as sorted JSON, so a PR can check in a machine-
// readable performance baseline (see `make bench-record`) and the next
// one can diff against it.
//
// With -compare the fresh results are additionally diffed against a
// checked-in baseline: any benchmark whose ns/op regressed past the
// tolerance (default 20%), or whose allocs/op or B/op grew past
// -alloc-tolerance (default 25%), is reported and the exit status is non-zero (see `make bench-check`).
// Benchmarks new to this run are noted but never fail; baseline entries
// MISSING from the run fail the check unless -allow-missing is set — a
// benchmark that silently stops running is a gate that silently stops
// gating, which is exactly how a suite rots.
// Virtual-time simulations are deterministic but the host is not, so the
// ns/op tolerance is deliberately generous; the gate exists to catch
// order-of-magnitude accidents, not noise.
// Allocation counts and sizes ARE deterministic, so the allocs and bytes
// gates catch the quieter regression class: a pooled path that silently
// starts allocating again, or allocates the same number of larger objects.
//
// Only the standard benchmark line shape is recognized:
//
//	BenchmarkName-8   	    1234	    987654 ns/op	   45678 B/op	     123 allocs/op
//
// Everything else (PASS/ok lines, fuzz chatter, build noise) is ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one recorded benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to diff against; exit non-zero on ns/op, allocs/op or B/op regressions past tolerance")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op growth over the -compare baseline")
	allocTol := flag.Float64("alloc-tolerance", 0.25, "allowed fractional allocs/op and B/op growth over the -compare baseline")
	allowMissing := flag.Bool("allow-missing", false, "tolerate baseline benchmarks missing from this run instead of failing")
	flag.Parse()

	var results []Result
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// `go test -bench ./...` prefixes each package's results with a
		// "pkg: <import path>" header; qualify names with it so same-named
		// benchmarks in different packages stay distinct.
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if r, ok := parseLine(line); ok {
			if pkg != "" {
				r.Name = pkg + "." + r.Name
			}
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchrecord: no benchmark lines on stdin")
		os.Exit(1)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	if *out != "" || *compare == "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrecord:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchrecord:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchrecord: wrote %d results to %s\n", len(results), *out)
		}
	}
	if *compare != "" && !check(results, *compare, *tolerance, *allocTol, *allowMissing) {
		os.Exit(1)
	}
}

// check diffs fresh results against the baseline file; it reports every
// benchmark and returns false when any ns/op regressed past tolerance,
// any allocs/op or B/op grew past allocTol, or (without allowMissing)
// when a baseline entry did not run at all.
func check(results []Result, baselineFile string, tolerance, allocTol float64, allowMissing bool) bool {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		return false
	}
	var baseline []Result
	if err := json.Unmarshal(data, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchrecord: %s: %v\n", baselineFile, err)
		return false
	}
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	ok := true
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		seen[r.Name] = true
		b, found := base[r.Name]
		switch {
		case !found:
			fmt.Printf("  new      %-60s %12.0f ns/op\n", r.Name, r.NsPerOp)
		case b.NsPerOp <= 0:
			fmt.Printf("  skip     %-60s baseline has no ns/op\n", r.Name)
		default:
			ratio := r.NsPerOp / b.NsPerOp
			verdict := "ok"
			if ratio > 1+tolerance {
				verdict = "REGRESSED"
				ok = false
			}
			fmt.Printf("  %-8s %-60s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
				verdict, r.Name, b.NsPerOp, r.NsPerOp, (ratio-1)*100)
			// A zero-alloc baseline that starts allocating is the exact
			// failure the pooled paths guard against; any growth past the
			// absolute slack of 1 alloc/op fails regardless of ratio.
			if grew := r.AllocsPerOp - b.AllocsPerOp; grew > 1 &&
				float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocTol) {
				fmt.Printf("  ALLOCS   %-60s %12d -> %12d allocs/op\n",
					r.Name, b.AllocsPerOp, r.AllocsPerOp)
				ok = false
			}
			// The same gate on bytes, with an absolute slack of 256 B/op
			// for the runtime's own bookkeeping in place of the 1 alloc. A
			// path that allocated nothing has no bookkeeping to move: its
			// slack is 16 B/op, room for one-off growth amortized over
			// the run but not for a heap object per op.
			slack := int64(256)
			if b.BytesPerOp == 0 {
				slack = 16
			}
			if grew := r.BytesPerOp - b.BytesPerOp; grew > slack &&
				float64(r.BytesPerOp) > float64(b.BytesPerOp)*(1+allocTol) {
				fmt.Printf("  BYTES    %-60s %12d -> %12d B/op\n",
					r.Name, b.BytesPerOp, r.BytesPerOp)
				ok = false
			}
		}
	}
	missing := 0
	for _, b := range baseline {
		if !seen[b.Name] {
			fmt.Printf("  missing  %-60s was %12.0f ns/op\n", b.Name, b.NsPerOp)
			missing++
		}
	}
	if missing > 0 && !allowMissing {
		ok = false
		fmt.Fprintf(os.Stderr, "benchrecord: %d baseline benchmark(s) did not run; pass -allow-missing if that is intended\n", missing)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchrecord: ns/op regressions past %.0f%% or allocs/op or B/op past %.0f%% vs %s\n",
			tolerance*100, allocTol*100, baselineFile)
	}
	return ok
}

// parseLine recognizes one benchmark result line; the -N GOMAXPROCS
// suffix is kept as part of the name (it is part of the measurement).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	okNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false
			}
			okNs = true
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
		}
	}
	return r, okNs
}
