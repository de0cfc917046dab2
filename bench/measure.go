package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/stats"
)

// processStart approximates when this process started; a set-up child
// counts its readiness from it.
var processStart = time.Now()

const (
	// setups is how many child processes a run sets up in; setup_s and
	// peak_rss_mb are the medians over them.
	setups = 3
	// setupEnv, when set to "<workload> <seed> <n> <horizon> <worlds>",
	// makes the process a set-up child (see setUpChild).
	setupEnv = "DDSBENCH_SETUP"
	// minReps is the floor on timed repetitions whatever -seconds says.
	minReps = 3
	// refReps is how many untraced repetitions a traced run times to
	// state its own overhead against.
	refReps = 2
	// ladderReps is how many times each ablation row runs; the row's CPU
	// figure is the lower one, since marginals subtract two noisy rows.
	ladderReps = 2
)

// sample is one measured execution of a workload (all its cells).
type sample struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"bytes"`
	Events  int     `json:"events"`
	Digest  string  `json:"digest"`
	Err     string  `json:"error,omitempty"`

	stats []simStats
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error())
	}
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// execute runs every cell of one execution, through exp.Execute or, with
// viaDrive, through the benchmark's phase-split driver. A panic anywhere
// below is a failed execution, not a crashed benchmark.
func execute(cells []cell, viaDrive bool, p *probe) (stats []simStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for _, c := range cells {
		var res exp.RunResult
		if viaDrive {
			res = drive(c, p)
		} else {
			res = exp.Execute(c.sc)
		}
		st, cerr := collect(c, res)
		if cerr != nil && err == nil {
			err = cerr
		}
		stats = append(stats, st)
	}
	return stats, err
}

// measure times one execution: construct, run, judge, collect. The heap
// is collected first so every repetition starts from the same state.
func measure(cells []cell, viaDrive bool, p *probe) sample {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu := cpuSeconds()
	start := time.Now()
	stats, err := execute(cells, viaDrive, p)
	s := sample{Wall: time.Since(start).Seconds(), CPU: cpuSeconds() - cpu}
	runtime.ReadMemStats(&after)
	s.Mallocs = after.Mallocs - before.Mallocs
	s.Bytes = after.TotalAlloc - before.TotalAlloc
	s.stats = stats
	s.Digest = digest(stats)
	for _, st := range stats {
		s.Events += st.Events
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

func median(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(50)
}

func medianOf[T any](samples []T, f func(T) float64) float64 {
	var s stats.Sample
	for _, smp := range samples {
		s.Add(f(smp))
	}
	return s.Percentile(50)
}
