package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ladderResult is one measured ablation row.
type ladderResult struct {
	Row     string  `json:"row"`
	Layer   string  `json:"layer,omitempty"`
	CPU     float64 `json:"cpu_s"`
	Mallocs uint64  `json:"mallocs"`
	Events  int     `json:"events"`
	Digest  string  `json:"digest"`
}

// leafResult is everything one (workload, seed, trace mode) run produced.
type leafResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	N         int                    `json:"n"`
	Horizon   int64                  `json:"horizon"`
	Worlds    int                    `json:"worlds"`
	Events    int                    `json:"events"`
	Digest    string                 `json:"digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Setups    []readiness            `json:"setups,omitempty"`
	Reps      []sample               `json:"reps"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ladder    []ladderResult         `json:"ladder,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`

	// want is the digest every execution of the workload itself must
	// reproduce: the golden when one applies, else the first one seen.
	want string
}

// judge counts one execution and fails it if it errored or if its digest
// is not want ("" accepts and returns the digest seen).
func (r *leafResult) judge(what string, s sample, want string) string {
	r.Attempted++
	switch {
	case s.Err != "":
		r.fail("%s: %s", what, s.Err)
	case want != "" && s.Digest != want:
		r.fail("%s: digest %s, want %s", what, s.Digest, want)
	}
	if want == "" {
		return s.Digest
	}
	return want
}

func (r *leafResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *leafResult) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

func newLeaf(wl workload, sz size, seed uint64, trace int) *leafResult {
	return &leafResult{Workload: wl.name, Seed: seed, Trace: trace, N: sz.n, Horizon: int64(sz.horizon), Worlds: sz.worlds}
}

// setUp is what a run does before its first timed repetition: build the
// inputs, load the golden, and execute the workload once untimed to warm
// the heap — which must already reproduce the expected digest.
func (r *leafResult) setUp(wl workload, sz size, seed uint64) {
	gold := goldenFor(wl, sz, seed)
	if r.want == "" && gold != nil {
		r.want = gold.Digest
	}
	s := measure(wl.build(seed, sz, wl.top, nil), false, nil)
	r.want = r.judge("warm-up", s, r.want)
	r.Events, r.Digest = s.Events, s.Digest
}

// readiness is what one process paid to be ready for its first timed
// repetition: the time since it started and its peak resident set then —
// what somebody who runs the workload once, as `ddsim` does, pays in all.
type readiness struct {
	Seconds float64  `json:"seconds"`
	RSSMiB  float64  `json:"rss_mib"`
	Digest  string   `json:"digest"`
	Errors  []string `json:"errors,omitempty"`
}

func (r *leafResult) ready() readiness {
	return readiness{Seconds: time.Since(processStart).Seconds(), RSSMiB: peakRSSMiB(), Digest: r.Digest, Errors: r.Errors}
}

// setUpChild sets the same run up once more in a process of its own and
// returns what that process reports. Only a fresh process has a start to
// count from and a peak resident set that is one execution's: this
// process's own keeps whatever its worst repetition left behind, a maximum
// over many that read a third higher on some runs than on others.
func setUpChild(wl workload, sz size, seed uint64) (readiness, error) {
	var got readiness
	self, err := os.Executable()
	if err != nil {
		return got, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d %d %d", setupEnv, wl.name, seed, sz.n, sz.horizon, sz.worlds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return got, err
	}
	return got, json.Unmarshal(out, &got)
}

// setupChildMain is the whole life of a set-up child: set up, say what it
// took on standard output, end.
func setupChildMain(spec string) {
	var (
		name string
		seed uint64
		sz   size
	)
	if _, err := fmt.Sscanf(spec, "%s %d %d %d %d", &name, &seed, &sz.n, &sz.horizon, &sz.worlds); err != nil {
		fatal("%s=%q: %v", setupEnv, spec, err)
	}
	wl, ok := findWorkload(name)
	if !ok {
		fatal("%s: unknown workload %q", setupEnv, name)
	}
	r := newLeaf(wl, sz, seed, 0)
	r.setUp(wl, sz, seed)
	if err := json.NewEncoder(os.Stdout).Encode(r.ready()); err != nil {
		fatal("%v", err)
	}
}

// runEndToEnd is a --trace 0 run: set up in `setups` children, one after
// the other, then once more here and repeat the identical execution
// through exp.Execute for at least `seconds`. The children go first,
// while this process is still small: a child's peak resident set starts
// from its parent's at the fork.
func runEndToEnd(wl workload, sz size, seed uint64, seconds float64) *leafResult {
	r := newLeaf(wl, sz, seed, 0)
	for len(r.Setups) < setups {
		s, err := setUpChild(wl, sz, seed)
		if r.want == "" {
			r.want = s.Digest
		}
		r.Attempted++
		switch {
		case err != nil:
			r.fail("set-up child: %v", err)
		case len(s.Errors) > 0:
			r.fail("set-up child: %s", strings.Join(s.Errors, "; "))
		case s.Digest != r.want:
			r.fail("set-up child: digest %s, want %s", s.Digest, r.want)
		}
		r.Setups = append(r.Setups, s)
	}
	r.setUp(wl, sz, seed)
	begin := time.Now()
	for len(r.Reps) < minReps || time.Since(begin).Seconds() < seconds {
		s := measure(wl.build(seed, sz, wl.top, nil), false, nil)
		r.judge(fmt.Sprintf("rep %d", len(r.Reps)+1), s, r.want)
		r.Reps = append(r.Reps, s)
	}
	ev := float64(r.Events)
	r.set(endToEnd, map[string]float64{
		"setup_s":       medianOf(r.Setups, func(s readiness) float64 { return s.Seconds }),
		"kev_per_s":     ev / 1000 / medianOf(r.Reps, func(s sample) float64 { return s.Wall }),
		"cpu_ns_per_ev": medianOf(r.Reps, func(s sample) float64 { return s.CPU }) * 1e9 / ev,
		"allocs_per_ev": medianOf(r.Reps, func(s sample) float64 { return float64(s.Mallocs) }) / ev,
		"bytes_per_ev":  medianOf(r.Reps, func(s sample) float64 { return float64(s.Bytes) }) / ev,
		"peak_rss_mb":   medianOf(r.Setups, func(s readiness) float64 { return s.RSSMiB }),
	})
	return r
}

// runLayers is a --trace 1 run: a few untraced reference repetitions, the
// traced run through the phase-split driver, the ablation ladder, and the
// direct-call timings.
func runLayers(wl workload, sz size, seed uint64) *leafResult {
	r := newLeaf(wl, sz, seed, 1)
	r.setUp(wl, sz, seed)
	for i := 0; i < refReps; i++ {
		s := measure(wl.build(seed, sz, wl.top, nil), false, nil)
		r.judge(fmt.Sprintf("reference rep %d", i+1), s, r.want)
		r.Reps = append(r.Reps, s)
	}

	p := newProbe()
	traced := measure(wl.build(seed, sz, wl.top, p), true, p)
	r.judge("traced run (driver digest vs exp.Execute digest)", traced, r.want)
	r.Spans = p.spans

	m := layerCounts(traced.stats, p.fired)
	recvSelf := (p.recvTime - p.sinkInRecv).Seconds()
	m["exp.setup_s"] = p.total("exp.setup")
	m["sim.run_s"] = p.total("sim.run")
	m["behavior.receive_s"] = recvSelf
	m["behavior.receive_calls"] = float64(p.recvCalls)
	m["core.sink_s"] = p.sinkTime.Seconds()
	m["core.sink_calls"] = float64(p.sinkCalls)
	m["run.self_s"] = m["sim.run_s"] - recvSelf - p.sinkTime.Seconds()
	m["otq.check_s"] = p.total("otq.check")
	m["core.infer_s"] = p.total("core.infer")
	m["trace.overhead_frac"] = traced.Wall/medianOf(r.Reps, func(s sample) float64 { return s.Wall }) - 1

	gold := goldenFor(wl, sz, seed)
	for level, row := range wl.rows {
		want := ""
		if level == wl.top {
			want = r.want
		} else if gold != nil {
			want = gold.Ladder[row.name]
		}
		var s sample
		for i := 0; i < ladderReps; i++ {
			again := measure(wl.build(seed, sz, level, nil), true, nil)
			want = r.judge("ladder row "+row.name, again, want)
			if i == 0 || again.CPU < s.CPU {
				s = again
			}
		}
		r.Ladder = append(r.Ladder, ladderResult{Row: row.name, Layer: row.layer,
			CPU: s.CPU, Mallocs: s.Mallocs, Events: s.Events, Digest: s.Digest})
	}
	base, top := r.Ladder[0], r.Ladder[len(r.Ladder)-1]
	m["ladder.base_cpu_s"], m["ladder.base_allocs"], m["ladder.base_events"] = base.CPU, float64(base.Mallocs), float64(base.Events)
	m["ladder.top_cpu_s"], m["ladder.top_allocs"], m["ladder.top_events"] = top.CPU, float64(top.Mallocs), float64(top.Events)
	for i := 1; i < len(r.Ladder); i++ {
		prev, row := r.Ladder[i-1], r.Ladder[i]
		m[row.Layer+".marginal_cpu_s"] = row.CPU - prev.CPU
		m[row.Layer+".marginal_allocs"] = float64(row.Mallocs) - float64(prev.Mallocs)
		m[row.Layer+".marginal_events"] = float64(row.Events - prev.Events)
	}

	directTimings(p, m)
	m["pex.codec_est_share"] = div(m["node.pexlayer.records_shipped"]*
		(m["pex.encode_ns_per_rec"]+m["pex.decode_ns_per_rec"]+m["pex.sign_ns"]+m["pex.verify_ns"])/1e9, m["sim.run_s"])
	r.set(perLayer, m)
	return r
}
