// Command bench is the repository's benchmark: five whole-world workloads
// timed end to end through exp.Execute, a per-layer ledger taken from
// outside the runtime (spans, wrapped hooks, ablation, direct calls), and
// pinned digests of every simulated statistic. See README.md beside it.
//
//	go run ./bench                                    every workload, both modes
//	go run ./bench -workload pex-churn -trace 0       end-to-end metrics of one
//	go run ./bench -workload stack-storm -trace 1     its per-layer ledger
//	go run ./bench -selfcheck                         two full sets, compared
//	go run ./bench -update-golden                     re-pin bench/golden.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// outDir receives trace-*.json, reps-*.json and result.json; paths are
// relative to the repository root, where the benchmark is run from.
const (
	outDir     = "bench/out"
	goldenPath = "bench/golden.json"
)

// pinRuntime fixes the two runtime settings that made identical work read
// differently from host to host and from minute to minute.
//
// At most two Ps: the simulator's goroutine and the collector's, as on the
// 2-core box the workloads were sized on; on a wider host idle Ps join
// every mark phase and process CPU time measures how many happened to.
//
// madvdontneed=0: freed heap goes back to the kernel lazily (MADV_FREE).
// With the default the two full-trace workloads re-fault the same pages
// 400 000 times a run (8x the others), each fault a trip through the
// hypervisor whose price follows the host's load: system time for the same
// run read 2.3 s and 8.3 s an hour apart. The runtime reads GODEBUG before
// main runs, so pinning it for everyone who starts the benchmark means
// starting over once.
func pinRuntime() {
	if dbg := os.Getenv("GODEBUG"); !strings.Contains(dbg, "madvdontneed=") {
		os.Setenv("GODEBUG", strings.TrimPrefix(dbg+",madvdontneed=0", ","))
		self, err := os.Executable()
		if err == nil {
			err = syscall.Exec(self, os.Args, os.Environ())
		}
		fatal("restarting with GODEBUG=%s: %v", os.Getenv("GODEBUG"), err)
	}
	runtime.GOMAXPROCS(min(2, runtime.GOMAXPROCS(0)))
}

func main() {
	pinRuntime()
	if spec := os.Getenv(setupEnv); spec != "" {
		setupChildMain(spec)
		return
	}
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all (one child process per workload and mode)")
		seed         = flag.Uint64("seed", goldenSeed, "workload seed; only seed 1 is checked against golden.json")
		seconds      = flag.Float64("seconds", 10, "least time the timed repetitions of a -trace 0 run cover")
		trace        = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; both")
		asJSON       = flag.Bool("json", false, "also print the result.json object of an all/both run to stdout")
		selfcheck    = flag.Bool("selfcheck", false, "run the full set twice and fail if any end-to-end metric disagrees beyond its bound")
		update       = flag.Bool("update-golden", false, "re-pin "+goldenPath+" from this code at seed 1 and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	var names []string
	if *workloadName == "all" {
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
	} else if _, ok := findWorkload(*workloadName); ok {
		names = []string{*workloadName}
	} else {
		fatal("unknown workload %q", *workloadName)
	}
	var modes []int
	switch *trace {
	case "0":
		modes = []int{0}
	case "1":
		modes = []int{1}
	case "both":
		modes = []int{0, 1}
	default:
		fatal("-trace wants 0, 1 or both, not %q", *trace)
	}

	switch {
	case *update:
		if err := updateGolden(goldenPath); err != nil {
			fatal("%v", err)
		}
	case *selfcheck:
		a := fanOut(names, modes, *seed, *seconds)
		b := fanOut(names, modes, *seed, *seconds)
		if !compareSets(a, b) {
			os.Exit(1)
		}
	case len(names) == 1 && len(modes) == 1:
		wl, _ := findWorkload(names[0])
		var r *leafResult
		if modes[0] == 0 {
			r = runEndToEnd(wl, wl.full, *seed, *seconds)
		} else {
			r = runLayers(wl, wl.full, *seed)
		}
		if err := writeJSON(leafPath(wl.name, modes[0]), r); err != nil {
			fatal("%v", err)
		}
		r.print()
		if r.Failed > 0 {
			os.Exit(1)
		}
	default:
		set := fanOut(names, modes, *seed, *seconds)
		if err := writeJSON(filepath.Join(outDir, "result.json"), set); err != nil {
			fatal("%v", err)
		}
		if *asJSON {
			data, err := json.MarshalIndent(set, "", " ")
			if err != nil {
				fatal("%v", err)
			}
			fmt.Println(string(data))
		}
		for _, w := range set {
			if w.Failed > 0 {
				os.Exit(1)
			}
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// leafPath is where a single run leaves its full record: repetitions for
// an end-to-end run, spans and ladder for a traced one.
func leafPath(workload string, trace int) string {
	kind := "reps"
	if trace == 1 {
		kind = "trace"
	}
	return filepath.Join(outDir, kind+"-"+workload+".json")
}

// print writes every metric by name with its unit, then the one-line
// result object drivers parse.
func (r *leafResult) print() {
	fmt.Printf("%s seed=%d trace=%d n=%d horizon=%d worlds=%d events=%d digest=%s samples=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.N, r.Horizon, r.Worlds, r.Events, r.Digest, len(r.Reps), r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	GoVersion string                 `json:"go_version"`
	NProc     int                    `json:"nproc"`
	Samples   int                    `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Reps      []sample               `json:"reps,omitempty"`
}

// fanOut runs each (workload, mode) pair in a process of its own, so
// peak_rss_mb and the heap each run starts from belong to it alone, and
// gathers the records the children leave in outDir.
func fanOut(names []string, modes []int, seed uint64, seconds float64) []workloadResult {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	var set []workloadResult
	for _, name := range names {
		w := workloadResult{Workload: name, Seed: seed, GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
		for _, mode := range modes {
			// Drop the last run's record, so a child that dies before
			// writing its own cannot be mistaken for having succeeded.
			os.Remove(leafPath(name, mode))
			cmd := exec.Command(self, "-workload", name, "-trace", strconv.Itoa(mode),
				"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// A child that exits non-zero after writing its record had failed
			// executions; one that wrote none shows up below.
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
				fatal("%v", err)
			}
			var r leafResult
			data, err := os.ReadFile(leafPath(name, mode))
			if err == nil {
				err = json.Unmarshal(data, &r)
			}
			if err != nil {
				fatal("%s -trace %d left no record (%v)", name, mode, err)
			}
			w.Attempted += r.Attempted
			w.Failed += r.Failed
			if mode == 0 {
				w.EndToEnd, w.Reps, w.Samples = r.Metrics, r.Reps, len(r.Reps)
			} else {
				w.PerLayer = r.Metrics
			}
		}
		set = append(set, w)
	}
	return set
}

// compareSets prints both passes of -selfcheck side by side and reports
// whether they agree: every end-to-end metric within its bound, every
// exact per-layer metric identical, no failed execution.
func compareSets(a, b []workloadResult) bool {
	ok := true
	fmt.Printf("\n%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "pass 1", "pass 2", "gap", "bound")
	for i := range a {
		if a[i].Failed+b[i].Failed > 0 {
			fmt.Printf("%-14s failed executions: %d and %d\n", a[i].Workload, a[i].Failed, b[i].Failed)
			ok = false
		}
		for _, d := range endToEnd {
			if a[i].EndToEnd == nil {
				break
			}
			x, y := a[i].EndToEnd[d.Name].Value, b[i].EndToEnd[d.Name].Value
			gap := (y - x) / x
			verdict := ""
			if math.Abs(gap) > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				a[i].Workload, d.Name, x, y, 100*gap, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if x, y := a[i].PerLayer[d.Name].Value, b[i].PerLayer[d.Name].Value; d.Exact && x != y {
				fmt.Printf("%-14s %-16s %14.6g %14.6g  exact metric moved\n", a[i].Workload, d.Name, x, y)
				ok = false
			}
		}
	}
	return ok
}
