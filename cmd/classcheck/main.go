// Command classcheck classifies a recorded run: it infers the tightest
// system class a trace witnesses and optionally checks the trace against
// a declared class (the paper's two dimensions made executable).
//
// The trace either comes from a JSON file (-in trace.json, as written by
// -out or core.EncodeTrace) or is generated on the spot from churn flags.
//
// Examples:
//
//	classcheck -n 24 -arrival 0.5 -session 40 -max-concurrent 24 -declare-size M^b -declare-b 24
//	classcheck -in trace.json
//	classcheck -n 16 -arrival 0.1 -session 60 -out trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	var (
		in            = flag.String("in", "", "read a JSON trace instead of generating one")
		out           = flag.String("out", "", "also write the trace as JSON to this file")
		n             = flag.Int("n", 24, "initial population")
		immortal      = flag.Bool("immortal", false, "initial population never leaves")
		arrival       = flag.Float64("arrival", 0.3, "Poisson arrival rate per tick")
		session       = flag.Float64("session", 50, "mean session length (exp-distributed)")
		maxConc       = flag.Int("max-concurrent", 0, "concurrency cap b (M^b generator; 0 = uncapped)")
		doubleEvery   = flag.Int64("double-every", 0, "double the arrival rate every D ticks (M^inf)")
		quiesceAt     = flag.Int64("quiesce-at", 0, "suppress churn from this tick on")
		horizon       = flag.Int64("horizon", 1200, "run length in ticks")
		overlayName   = flag.String("overlay", "ring", "overlay: mesh, star, ring, random-k, growing-path, fragile")
		seed          = flag.Uint64("seed", 1, "run seed")
		declareSize   = flag.String("declare-size", "", "declared size model: static, M^b, M^n, M^inf")
		declareB      = flag.Int("declare-b", 0, "declared concurrency bound for static/M^b")
		declareGeo    = flag.String("declare-geo", "unconstrained", "declared geography: complete, diam-known, diam-bounded, unconstrained")
		declareD      = flag.Int("declare-d", 0, "declared diameter bound for diam-known")
		declareStable = flag.Bool("declare-stable", false, "declared eventual stability")
	)
	flag.Parse()

	// Every flag is judged here, before a trace is generated, read or
	// written: a typo in the declared class must not cost a run.
	var declared core.Class
	if *declareSize != "" {
		var err error
		if declared, err = parseClass(*declareSize, *declareB, *declareGeo, *declareD, *declareStable); err != nil {
			fatal(err)
		}
	} else {
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "declare-") {
				fatal(fmt.Errorf("-%s without -declare-size declares no class; add -declare-size", f.Name))
			}
		})
	}
	switch {
	case *n < 0:
		fatal(fmt.Errorf("-n %d: the initial population cannot be negative", *n))
	case *horizon < 1:
		fatal(fmt.Errorf("-horizon %d: the run needs a positive horizon", *horizon))
	case *arrival < 0:
		fatal(fmt.Errorf("-arrival %v: the arrival rate cannot be negative (0 = no arrivals)", *arrival))
	case *session <= 0:
		fatal(fmt.Errorf("-session %v: sessions need a positive mean length", *session))
	case *maxConc < 0:
		fatal(fmt.Errorf("-max-concurrent %d: the concurrency cap cannot be negative (0 = uncapped)", *maxConc))
	case *doubleEvery < 0:
		fatal(fmt.Errorf("-double-every %d: the doubling period cannot be negative (0 = a constant rate)", *doubleEvery))
	case *quiesceAt < 0:
		fatal(fmt.Errorf("-quiesce-at %d: the quiescence tick cannot be negative (0 = churn never stops)", *quiesceAt))
	case overlays[*overlayName] == nil:
		fatal(fmt.Errorf("unknown overlay %q (want mesh, star, ring, random-k, growing-path, or fragile)", *overlayName))
	}

	var tr *core.Trace
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		tr, err = core.DecodeTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		tr = generate(*overlayName, *seed, churn.Config{
			InitialPopulation: *n,
			Immortal:          *immortal,
			ArrivalRate:       *arrival,
			Session:           churn.ExpSessions(*session),
			MaxConcurrent:     *maxConc,
			DoubleEvery:       *doubleEvery,
			QuiesceAt:         *quiesceAt,
		}, sim.Time(*horizon))
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := core.EncodeTrace(f, tr); err != nil {
			fatal(fmt.Errorf("-out: %v", err))
		}
		// Some write errors surface only at Close (a deferred flush on a
		// network filesystem, a quota): the trace is written once Close
		// succeeds, not before.
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("-out: %v", err))
		}
		fmt.Printf("trace written to %s\n", *out)
	}

	fmt.Printf("trace: %d events, %d entities ever, end at t=%d\n",
		tr.Len(), len(tr.Entities()), tr.End())
	fmt.Printf("observed: max concurrency %d, last topology change at t=%d\n",
		tr.MaxConcurrency(), tr.LastTopologyChange())
	inferred := core.InferClass(tr)
	fmt.Printf("inferred class: %s\n", inferred)
	verdict, reason := core.OTQSolvability(inferred)
	fmt.Printf("one-time query there: %s — %s\n", verdict, reason)

	if *declareSize == "" {
		return
	}
	rep := core.CheckClass(tr, declared)
	fmt.Printf("\ndeclared class: %s\n", declared)
	if rep.OK() {
		fmt.Println("check: the run is admissible in the declared class")
		return
	}
	fmt.Printf("check: %d violations\n", len(rep.Violations))
	for i, v := range rep.Violations {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(rep.Violations)-10)
			break
		}
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

// overlays builds each -overlay choice from the run seed.
var overlays = map[string]func(seed uint64) topology.Overlay{
	"mesh":         func(uint64) topology.Overlay { return topology.NewMesh() },
	"star":         func(uint64) topology.Overlay { return topology.NewStar() },
	"ring":         func(seed uint64) topology.Overlay { return topology.NewRing(seed) },
	"random-k":     func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, 3) },
	"growing-path": func(uint64) topology.Overlay { return topology.NewGrowingPath() },
	"fragile":      func(seed uint64) topology.Overlay { return topology.NewFragile(seed) },
}

func generate(overlayName string, seed uint64, cc churn.Config, horizon sim.Time) *core.Trace {
	engine := sim.New()
	w := node.NewWorld(engine, overlays[overlayName](seed), nil, node.Config{Seed: seed})
	w.ApplyChurn(churn.New(seed, cc), horizon)
	engine.RunUntil(horizon)
	w.Close()
	return w.Trace
}

func parseClass(size string, b int, geo string, d int, stable bool) (core.Class, error) {
	c := core.Class{B: b, D: d, EventuallyStable: stable}
	if b < 0 {
		return c, fmt.Errorf("-declare-b %d: a concurrency bound cannot be negative", b)
	}
	if d < 0 {
		return c, fmt.Errorf("-declare-d %d: a diameter bound cannot be negative", d)
	}
	switch size {
	case "static":
		c.Size = core.SizeStatic
	case "M^b", "mb":
		c.Size = core.SizeBoundedKnown
	case "M^n", "mn":
		c.Size = core.SizeBoundedUnknown
	case "M^inf", "minf":
		c.Size = core.SizeUnbounded
	default:
		return c, fmt.Errorf("unknown size model %q", size)
	}
	switch geo {
	case "complete":
		c.Geo = core.GeoComplete
	case "diam-known":
		c.Geo = core.GeoDiameterKnown
	case "diam-bounded":
		c.Geo = core.GeoDiameterBounded
	case "unconstrained":
		c.Geo = core.GeoUnconstrained
	default:
		return c, fmt.Errorf("unknown geography %q", geo)
	}
	return c, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "classcheck:", err)
	os.Exit(2)
}
