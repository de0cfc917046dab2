// Command tracedump renders a recorded run (JSON, as written by
// classcheck -out or core.EncodeTrace) as a human-readable report: a
// population timeline, topology statistics over time, message accounting,
// the inferred system class, and optionally the raw event log.
//
// Usage:
//
//	tracedump trace.json
//	tracedump -events -every 100 trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	events := flag.Bool("events", false, "also dump the raw event log")
	every := flag.Int64("every", 0, "timeline sampling interval in ticks (0 = auto: end/12)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracedump [-events] [-every N] trace.json")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	tr, err := core.DecodeTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("trace %s: %d events, end at t=%d\n", flag.Arg(0), tr.Len(), tr.End())
	fmt.Printf("entities ever present: %d, max concurrency: %d\n",
		len(tr.Entities()), tr.MaxConcurrency())
	fmt.Printf("last topology change: t=%d\n", tr.LastTopologyChange())
	ms := tr.Messages("")
	fmt.Printf("messages: sent %d, delivered %d, dropped %d\n", ms.Sent, ms.Delivered, ms.Dropped)
	ss := tr.SessionStatistics()
	fmt.Printf("sessions: %d (%d completed), mean length %.1f, max %d, churn %.3f events/tick\n",
		ss.Sessions, ss.Completed, ss.MeanLength, ss.MaxLength, ss.EventsPerTick)

	inferred := core.InferClass(tr)
	fmt.Printf("inferred class: %s\n", inferred)
	verdict, reason := core.OTQSolvability(inferred)
	fmt.Printf("one-time query there: %s — %s\n\n", verdict, reason)

	step := *every
	if step <= 0 {
		step = tr.End() / 12
		if step <= 0 {
			step = 1
		}
	}
	tg := tr.Temporal()
	tb := stats.NewTable("t", "present", "population bar", "edges", "connected", "diameter")
	for t := core.Time(0); t <= tr.End(); t += step {
		g := tg.Snapshot(t)
		n := g.NumNodes()
		diam := "-"
		conn := "-"
		if n > 0 {
			if d, ok := g.Diameter(); ok {
				diam = fmt.Sprintf("%d", d)
				conn = "yes"
			} else {
				conn = "no"
			}
		}
		bar := strings.Repeat("#", min(n, 60))
		tb.AddRow(t, n, bar, g.NumEdges(), conn, diam)
	}
	fmt.Print(tb)

	if *events {
		fmt.Println("\nevent log:")
		tr.Replay(func(ev core.TraceEvent) {
			switch ev.Kind {
			case core.TJoin, core.TLeave:
				fmt.Printf("  t=%-6d %-9s %d\n", ev.At, ev.Kind, ev.P)
			case core.TEdgeUp, core.TEdgeDown:
				fmt.Printf("  t=%-6d %-9s %d-%d\n", ev.At, ev.Kind, ev.P, ev.Q)
			case core.TMark:
				fmt.Printf("  t=%-6d %-9s %d %q\n", ev.At, ev.Kind, ev.P, ev.Tag)
			default:
				fmt.Printf("  t=%-6d %-9s %d->%d %q\n", ev.At, ev.Kind, ev.P, ev.Q, ev.Tag)
			}
		})
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(2)
}
