// Command otqbench runs the experiment suite (E1-E30) that reproduces the
// paper's claims and prints the result tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	otqbench [-quick] [-seeds N] [-only E2,E7] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	quick := flag.Bool("quick", false, "shrink populations and horizons (CI-sized runs)")
	seeds := flag.Int("seeds", 5, "independent repetitions per experiment cell (at least 1)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "otqbench: -seeds %d: every cell needs at least one seed\n", *seeds)
		os.Exit(2)
	}

	if *list {
		for _, ex := range exp.All() {
			fmt.Printf("%-4s %s\n", ex.ID, ex.Name)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	cfg := exp.Config{Seeds: *seeds, Quick: *quick}
	ran := 0
	for _, ex := range exp.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		start := time.Now()
		rep := ex.Run(cfg)
		fmt.Println(rep)
		fmt.Printf("(%s completed in %v)\n\n", ex.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "otqbench: no experiment matches -only=%s\n", *only)
		os.Exit(2)
	}
}
