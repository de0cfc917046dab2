package otq

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/topology"
)

// The one OTQ judge is the streaming checker; CheckWith replays a retained
// trace through it. These tests replay scripted and randomized event
// streams through the live feed, through a count-only twin of the trace
// (proving the verdict never depended on retained events) and through
// the replay, and hold all three to refCheckWith.

// refCheckWith is the batch judgment CheckWith made before it became a
// replay, kept as the independent oracle for the streaming checker: it
// derives the stable set from the reconstructed sessions, ever-presence
// from EverPresentBetween and reachability from the trace's evolving
// graph, each over the whole retained trace.
func refCheckWith(tr *core.Trace, r *Run, valueOf func(graph.NodeID) float64, opts CheckOptions) Outcome {
	sessions := tr.Sessions
	if opts.BridgeRecoveries {
		sessions = tr.SessionsBridgingRecovery
	}
	if opts.BridgeRejoins {
		sessions = tr.SessionsBridgingRejoin
	}
	stableBetween := func(t1, t2 core.Time) []graph.NodeID {
		var out []graph.NodeID
		for p, ivs := range sessions() {
			for _, iv := range ivs {
				if iv.Covers(t1, t2) {
					out = append(out, p)
					break
				}
			}
		}
		slices.Sort(out)
		return out
	}
	ans := r.Answer()
	if ans == nil {
		out := Outcome{StableCount: len(stableBetween(r.Started, tr.End()))}
		for _, id := range tr.PresentAt(tr.End()) {
			if id == r.Querier {
				return out
			}
		}
		out.QuerierLeft = true
		return out
	}
	out := Outcome{Terminated: true, Duration: ans.At - r.Started}
	stable := stableBetween(r.Started, ans.At)
	out.StableCount = len(stable)
	out.Quarantined = tr.MarkedEntities(node.MarkAuthQuarantine)
	quarantined := map[graph.NodeID]bool{}
	for _, id := range out.Quarantined {
		quarantined[id] = true
	}
	out.ProvenEquivocators = tr.ProvenEquivocators()
	out.EpochSwitchers = tr.MarkedEntities(core.MarkEpochSwitch)
	proven := map[graph.NodeID]bool{}
	for _, id := range out.ProvenEquivocators {
		proven[id] = true
	}
	everPresent := map[graph.NodeID]bool{}
	for _, id := range tr.EverPresentBetween(r.Started, ans.At) {
		everPresent[id] = true
	}
	reachable := tr.Temporal().ReachableFrom(r.Querier, r.Started, ans.At)
	for _, id := range stable {
		if _, ok := ans.Contributors[id]; ok {
			out.CoveredStable++
		} else {
			out.MissedStable = append(out.MissedStable, id)
			if reachable[id] {
				out.MissedReachableStable = append(out.MissedReachableStable, id)
			}
			if quarantined[id] {
				out.MissedQuarantined = append(out.MissedQuarantined, id)
			}
			if proven[id] {
				out.MissedProven = append(out.MissedProven, id)
			}
		}
	}
	ids := make([]graph.NodeID, 0, len(ans.Contributors))
	for id := range ans.Contributors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !everPresent[id] {
			out.Fabricated = append(out.Fabricated, id)
		} else if valueOf != nil && ans.Contributors[id] != valueOf(id) {
			out.WrongValue = append(out.WrongValue, id)
		}
	}
	return out
}

type scriptStep struct {
	ev      *core.TraceEvent
	arm     bool
	resolve bool
}

type checkScript struct {
	querier  graph.NodeID
	started  core.Time
	ansAt    core.Time
	contribs map[graph.NodeID]float64
	steps    []scriptStep
	horizon  core.Time
}

func testValueOf(id graph.NodeID) float64 { return float64(id) * 3 }

// runScript replays one script through the live feed on a full trace, the
// live feed on a count-only trace and the post-hoc replay (CheckWith), and
// requires all three outcomes to equal refCheckWith's.
func runScript(t *testing.T, name string, sc checkScript, opts CheckOptions) {
	t.Helper()
	tr := &core.Trace{}
	c := NewStreamChecker(opts)
	tr.Stream(c.Observe)
	run := &Run{Querier: sc.querier, Started: sc.started}

	trLite := &core.Trace{}
	trLite.SetCountOnly(true)
	cLite := NewStreamChecker(opts)
	trLite.Stream(cLite.Observe)
	runLite := &Run{Querier: sc.querier, Started: sc.started}

	for _, st := range sc.steps {
		if st.arm {
			c.Arm(run)
			cLite.Arm(runLite)
		}
		if st.resolve {
			run.resolve(sc.ansAt, sc.contribs)
			runLite.resolve(sc.ansAt, sc.contribs)
		}
		if st.ev != nil {
			tr.Record(*st.ev)
			trLite.Record(*st.ev)
		}
	}
	tr.Close(sc.horizon)
	trLite.Close(sc.horizon)

	want := refCheckWith(tr, run, testValueOf, opts)
	for _, v := range []struct {
		feed string
		got  Outcome
	}{
		{"live", c.Finish(tr.End(), testValueOf)},
		{"count-only live", cLite.Finish(trLite.End(), testValueOf)},
		{"replay", CheckWith(tr, run, testValueOf, opts)},
	} {
		if !reflect.DeepEqual(want, v.got) {
			t.Errorf("%s (opts %+v): %s verdict diverged\nreference: %+v\n%s: %+v", name, opts, v.feed, want, v.feed, v.got)
		}
	}
}

func ev(at core.Time, kind core.TraceEventKind, p graph.NodeID) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: kind, P: p}
}

func edge(at core.Time, kind core.TraceEventKind, p, q graph.NodeID) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: kind, P: p, Q: q}
}

func mark(at core.Time, p graph.NodeID, tag string) *core.TraceEvent {
	return &core.TraceEvent{At: at, Kind: core.TMark, P: p, Tag: tag}
}

func allModes() []CheckOptions {
	return []CheckOptions{
		{},
		{BridgeRecoveries: true},
		{BridgeRejoins: true},
	}
}

// Hand-written scripts target the same-tick and bridging corners where an
// incremental reconstruction is easiest to get wrong.
func TestStreamCheckerScriptedEdgeCases(t *testing.T) {
	scripts := map[string]checkScript{
		"baseline covered": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{arm: true},
				{ev: edge(6, core.TEdgeUp, 1, 2)},
				{resolve: true},
				{ev: ev(10, core.TLeave, 2)},
			},
		},
		"join and leave at the arm tick": {
			// Entity 3 joins and leaves AT started: never stable, and
			// ever-present only if its session outlives the tick (it does
			// not: To == started). Entity 4 joins at started and stays.
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3, 3: 9},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(5, core.TJoin, 3)},
				{arm: true},
				{ev: ev(5, core.TLeave, 3)},
				{ev: ev(5, core.TJoin, 4)},
				{ev: edge(6, core.TEdgeUp, 1, 4)},
				{resolve: true},
			},
		},
		"close and reopen within the arm tick": {
			// Entity 2's first session dies at started; its second, also
			// opening at started, survives the window — it is stable.
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  10,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(2, core.TJoin, 2)},
				{arm: true},
				{ev: ev(5, core.TLeave, 2)},
				{ev: ev(5, core.TJoin, 2)},
				{resolve: true},
				{ev: ev(9, core.TLeave, 2)},
			},
		},
		"crash bridged across the window": {
			// Entity 2 crashes mid-window and recovers before the answer:
			// stable under BridgeRecoveries, missed under plain sessions.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{mark(6, 2, core.MarkCrash), false, false},
				{ev: ev(6, core.TLeave, 2)},
				{mark(8, 2, core.MarkRecover), false, false},
				{ev: ev(8, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"suspended at arm, resumes in window": {
			// Entity 2 crashed BEFORE the query and recovers inside the
			// window: its bridged session spans the arm.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(3, 2, core.MarkCrash), false, false},
				{ev: ev(3, core.TLeave, 2)},
				{arm: true},
				{mark(7, 2, core.MarkRecover), false, false},
				{ev: ev(7, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"improper join discards the suspended interval": {
			// Entity 2 crashes, then joins WITHOUT a recover mark: the
			// session reconstruction forgets the suspended interval and the
			// new session starts too late to be stable.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(6, 2, core.MarkCrash), false, false},
				{ev: ev(6, core.TLeave, 2)},
				{ev: ev(8, core.TJoin, 2)},
				{arm: false}, // placeholder ordering note: arm below
				{resolve: false},
			},
		},
		"rejoin bridged identity": {
			querier: 1, started: 5, ansAt: 11,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(6, core.TLeave, 2)},
				{mark(9, 2, core.MarkRejoin), false, false},
				{ev: ev(9, core.TJoin, 2)},
				{resolve: true},
			},
		},
		"querier departs before answering": {
			querier: 1, started: 5, ansAt: 0,
			horizon: 12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(7, core.TLeave, 1)},
			},
		},
		"no answer, querier stays": {
			querier: 1, started: 5, ansAt: 0,
			horizon: 12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: ev(7, core.TLeave, 2)},
			},
		},
		"answer at the arm tick": {
			querier: 1, started: 5, ansAt: 5,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  9,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{resolve: true},
				{ev: ev(7, core.TLeave, 2)},
			},
		},
		"fabricated and wrong-valued contributors": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3, 2: 1, 99: 7},
			horizon:  10,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{resolve: true},
			},
		},
		"partitioned stable member is unreachable": {
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{arm: true},
				{ev: edge(6, core.TEdgeDown, 1, 2)},
				{resolve: true},
			},
		},
		"marks collected over the whole run": {
			querier: 1, started: 5, ansAt: 8,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{mark(2, 2, node.MarkAuthQuarantine), false, false},
				{arm: true},
				{resolve: true},
				{mark(10, 2, core.MarkProvenEquivocator), false, false},
				{mark(11, 1, core.MarkEpochSwitch), false, false},
			},
		},
		// The replay arms before the first event at or after Started, or
		// after the last event when there is none; these rows put that
		// arm point at each end of the trace.
		"no event at or after the start": {
			querier: 1, started: 20, ansAt: 22,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  25,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: edge(4, core.TEdgeUp, 1, 2)},
				{ev: ev(10, core.TLeave, 3)},
				{arm: true},
				{resolve: true},
			},
		},
		"start earlier than the first event": {
			querier: 1, started: 2, ansAt: 6,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  9,
			steps: []scriptStep{
				{arm: true},
				{ev: ev(3, core.TJoin, 1)},
				{ev: ev(3, core.TJoin, 2)},
				{ev: edge(4, core.TEdgeUp, 1, 2)},
				{resolve: true},
				{ev: ev(8, core.TLeave, 2)},
			},
		},
		// The incremental spread seeds only from the endpoints of a tick's
		// edge-ups (and the querier when it first appears); these rows
		// put each kind of seed, and each non-seed, in a tick of its own.
		"edge up from a reached to an unreached node": {
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3, 2: 6},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{arm: true},
				{ev: edge(7, core.TEdgeUp, 3, 2)},
				{resolve: true},
			},
		},
		"reached node leaves, rejoins and relinks": {
			// Entity 2 is reached, leaves, rejoins isolated (still
			// reached), and reach then flows through it to 3 and on to 4.
			querier: 1, started: 5, ansAt: 11,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  14,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: ev(0, core.TJoin, 4)},
				{ev: edge(1, core.TEdgeUp, 1, 2)},
				{ev: edge(1, core.TEdgeUp, 3, 4)},
				{arm: true},
				{ev: ev(6, core.TLeave, 2)},
				{ev: ev(7, core.TJoin, 2)},
				{ev: edge(8, core.TEdgeUp, 2, 3)},
				{resolve: true},
			},
		},
		"edge up and down within one tick": {
			// Reachability applies the whole tick before spreading: the edge
			// is gone by then and nothing crosses it.
			querier: 1, started: 5, ansAt: 9,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 2)},
				{arm: true},
				{ev: edge(6, core.TEdgeUp, 1, 2)},
				{ev: edge(6, core.TEdgeDown, 1, 2)},
				{resolve: true},
			},
		},
		"querier absent at arm joins later": {
			// Nothing is reached at the arm; the querier's join seeds the
			// spread over the component it joins into (2 and 3), and a
			// later edge-up extends it to 4.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 2)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: ev(0, core.TJoin, 4)},
				{ev: edge(1, core.TEdgeUp, 2, 3)},
				{arm: true},
				{ev: ev(6, core.TJoin, 1)},
				{ev: edge(6, core.TEdgeUp, 1, 2)},
				{ev: edge(8, core.TEdgeUp, 4, 3)},
				{resolve: true},
			},
		},
		"edge between unreached nodes, one reached later": {
			// 3-4 links while neither is reached (no seed); when 1-3
			// links later, the spread from 1 must carry on through the
			// older edge to 4.
			querier: 1, started: 5, ansAt: 10,
			contribs: map[graph.NodeID]float64{1: 3},
			horizon:  12,
			steps: []scriptStep{
				{ev: ev(0, core.TJoin, 1)},
				{ev: ev(0, core.TJoin, 3)},
				{ev: ev(0, core.TJoin, 4)},
				{arm: true},
				{ev: edge(6, core.TEdgeUp, 3, 4)},
				{ev: edge(8, core.TEdgeUp, 1, 3)},
				{resolve: true},
			},
		},
	}
	// The "improper join" script needs arm/resolve placed explicitly.
	improper := scripts["improper join discards the suspended interval"]
	improper.steps = []scriptStep{
		{ev: ev(0, core.TJoin, 1)},
		{ev: ev(0, core.TJoin, 2)},
		{arm: true},
		{mark(6, 2, core.MarkCrash), false, false},
		{ev: ev(6, core.TLeave, 2)},
		{ev: ev(8, core.TJoin, 2)},
		{resolve: true},
	}
	scripts["improper join discards the suspended interval"] = improper

	for name, sc := range scripts {
		for _, opts := range allModes() {
			runScript(t, name, sc, opts)
		}
	}
}

// Randomized differential: arbitrary monotone event streams with churn,
// link flaps, lifecycle marks, mid-tick arms and resolutions. Any
// divergence of a feed from refCheckWith fails.
func TestStreamCheckerRandomDifferential(t *testing.T) {
	const entities = 6
	for seed := uint64(1); seed <= 400; seed++ {
		r := rng.New(seed)
		started := core.Time(4 + r.Intn(4))
		ansAt := started + core.Time(r.Intn(6))
		horizon := ansAt + core.Time(r.Intn(5)) + 2

		var events []core.TraceEvent
		tags := []string{
			core.MarkCrash, core.MarkRecover, core.MarkRejoin,
			node.MarkAuthQuarantine, core.MarkProvenEquivocator, core.MarkEpochSwitch,
		}
		for tick := core.Time(0); tick <= horizon; tick++ {
			for i := 0; i < r.Intn(4); i++ {
				p := graph.NodeID(1 + r.Intn(entities))
				switch r.Intn(6) {
				case 0:
					events = append(events, core.TraceEvent{At: tick, Kind: core.TJoin, P: p})
				case 1:
					events = append(events, core.TraceEvent{At: tick, Kind: core.TLeave, P: p})
				case 2, 3:
					q := graph.NodeID(1 + r.Intn(entities))
					if q == p {
						continue
					}
					kind := core.TEdgeUp
					if r.Bool(0.5) {
						kind = core.TEdgeDown
					}
					events = append(events, core.TraceEvent{At: tick, Kind: kind, P: p, Q: q})
				default:
					events = append(events, core.TraceEvent{At: tick, Kind: core.TMark, P: p, Tag: tags[r.Intn(len(tags))]})
				}
			}
		}

		// Place arm among the events of tick `started` (mid-tick, as in a
		// live run), and the resolution anywhere at or after it while
		// events are still <= ansAt.
		tickEnd := 0
		for tickEnd < len(events) && events[tickEnd].At <= started {
			tickEnd++
		}
		tickStart := tickEnd
		for tickStart > 0 && events[tickStart-1].At == started {
			tickStart--
		}
		armPos := tickStart + r.Intn(tickEnd-tickStart+1)
		resolvePos := -1
		if r.Intn(10) < 8 {
			lastOK := armPos
			for i := armPos; i < len(events); i++ {
				if events[i].At <= ansAt {
					lastOK = i + 1
				} else {
					break
				}
			}
			resolvePos = armPos + r.Intn(lastOK-armPos+1)
		}

		contribs := map[graph.NodeID]float64{}
		for p := graph.NodeID(1); p <= entities; p++ {
			if r.Bool(0.5) {
				v := testValueOf(p)
				if r.Intn(5) == 0 {
					v++ // corrupted value
				}
				contribs[p] = v
			}
		}
		if r.Intn(3) == 0 {
			contribs[99] = 7 // never-present contributor
		}

		sc := checkScript{
			querier:  graph.NodeID(1 + r.Intn(entities)),
			started:  started,
			ansAt:    ansAt,
			contribs: contribs,
			horizon:  horizon,
		}
		for i, e := range events {
			e := e
			if i == armPos {
				sc.steps = append(sc.steps, scriptStep{arm: true})
			}
			if i == resolvePos {
				sc.steps = append(sc.steps, scriptStep{resolve: true})
			}
			sc.steps = append(sc.steps, scriptStep{ev: &e})
		}
		if armPos == len(events) {
			sc.steps = append(sc.steps, scriptStep{arm: true})
		}
		if resolvePos == len(events) {
			sc.steps = append(sc.steps, scriptStep{resolve: true})
		}

		for _, opts := range allModes() {
			runScript(t, "random", sc, opts)
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestStreamCheckerObserveAllocsScaleWithChange bounds the per-tick cost
// of an armed window over a 2000-entity random-k(4) world under churn
// (one leave and one join a tick, never answered). The reached set spans
// the world, so re-flooding it on every tick would allocate thousands of
// times per tick; spreading from the tick's new edges allocates for the
// handful of nodes whose neighborhood changed.
func TestStreamCheckerObserveAllocsScaleWithChange(t *testing.T) {
	const n, ticks = 2000, 300
	ov := topology.NewRandomK(7, 4)
	r := rng.New(7)
	var present []graph.NodeID
	next := graph.NodeID(0)
	tickEvents := make([][]core.TraceEvent, ticks)
	emit := func(at core.Time, kind core.TraceEventKind, p, q graph.NodeID) {
		tickEvents[at] = append(tickEvents[at], core.TraceEvent{At: at, Kind: kind, P: p, Q: q})
	}
	edges := func(at core.Time, chs []topology.Change) {
		for _, c := range chs {
			kind := core.TEdgeDown
			if c.Up {
				kind = core.TEdgeUp
			}
			emit(at, kind, c.U, c.V)
		}
	}
	join := func(at core.Time) {
		next++
		present = append(present, next)
		emit(at, core.TJoin, next, 0)
		edges(at, ov.AddNode(next))
	}
	for i := 0; i < n; i++ {
		join(0)
	}
	for at := core.Time(1); at < ticks; at++ {
		i := 1 + r.Intn(len(present)-1) // the querier, entity 1, stays
		p := present[i]
		present = append(present[:i], present[i+1:]...)
		emit(at, core.TLeave, p, 0)
		edges(at, ov.RemoveNode(p))
		join(at)
	}

	c := NewStreamChecker(CheckOptions{})
	const armAt = 10
	for at := 0; at < armAt; at++ {
		for _, e := range tickEvents[at] {
			c.Observe(e)
		}
	}
	c.Arm(&Run{Querier: 1, Started: armAt})
	at := armAt
	feed := func() {
		for _, e := range tickEvents[at] {
			c.Observe(e)
		}
		at++
	}
	feed() // the arm tick, which the first flush spreads
	runs := ticks - at - 1
	perTick := testing.AllocsPerRun(runs, feed)
	if len(c.reached) < n/2 {
		t.Fatalf("only %d entities reached: the window does not exercise a world-sized reached set", len(c.reached))
	}
	if perTick > 60 {
		t.Errorf("Observe over one churned tick: %.0f allocs, want <= 60 (proportional to the change, not to the %d reached)", perTick, len(c.reached))
	}
}
