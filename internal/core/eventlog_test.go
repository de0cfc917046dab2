package core

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// sliceTrace is the trace's read side as it stood when the full trace was
// one doubling []TraceEvent: kept verbatim as the reference the chunked
// event log is differentially tested against.
type sliceTrace struct {
	events []TraceEvent
	end    Time
}

func (tr *sliceTrace) Len() int { return len(tr.events) }

func (tr *sliceTrace) Events() []TraceEvent {
	out := make([]TraceEvent, len(tr.events))
	copy(out, tr.events)
	return out
}

func (tr *sliceTrace) EventsSince(start int) []TraceEvent {
	if start < 0 {
		start = 0
	}
	if start >= len(tr.events) {
		return nil
	}
	out := make([]TraceEvent, len(tr.events)-start)
	copy(out, tr.events[start:])
	return out
}

func (tr *sliceTrace) sessions(b Bridging) map[graph.NodeID][]Interval {
	type state struct {
		open, suspended     bool
		from, leftAt        Time
		crashing, returning bool
	}
	states := make(map[graph.NodeID]*state)
	out := make(map[graph.NodeID][]Interval)
	for i := range tr.events {
		ev := &tr.events[i]
		crash := ev.Kind == TMark && ev.Tag == MarkCrash
		returns := ev.Kind == TMark && (ev.Tag == MarkRecover || (ev.Tag == MarkRejoin && b == BridgeRejoin))
		if ev.Kind != TJoin && ev.Kind != TLeave && !crash && !returns {
			continue
		}
		st := states[ev.P]
		if st == nil {
			st = &state{}
			states[ev.P] = st
		}
		switch {
		case crash:
			st.crashing = true
		case returns:
			st.returning = true
		case ev.Kind == TJoin && !st.open:
			if !(st.suspended && st.returning) {
				st.from = ev.At
			}
			st.open, st.suspended, st.returning = true, false, false
		case ev.Kind == TLeave && st.open:
			st.open, st.leftAt = false, ev.At
			st.suspended = b == BridgeRejoin || (b == BridgeRecovery && st.crashing)
			st.crashing = false
			if !st.suspended {
				out[ev.P] = append(out[ev.P], Interval{From: st.from, To: ev.At})
			}
		}
	}
	for p, st := range states {
		switch {
		case st.open:
			out[p] = append(out[p], Interval{From: st.from, To: tr.end + 1})
		case st.suspended:
			out[p] = append(out[p], Interval{From: st.from, To: st.leftAt})
		}
	}
	return out
}

func (tr *sliceTrace) MaxConcurrency() int {
	cur, max := 0, 0
	for _, ev := range tr.events {
		switch ev.Kind {
		case TJoin:
			cur++
			if cur > max {
				max = cur
			}
		case TLeave:
			cur--
		}
	}
	return max
}

func (tr *sliceTrace) Temporal() *graph.Temporal {
	tg := graph.NewTemporal()
	for i := range tr.events {
		if ev := &tr.events[i]; int(ev.Kind) < len(temporalKind) {
			tg.Record(graph.TemporalEvent{At: ev.At, Kind: temporalKind[ev.Kind], U: ev.P, V: ev.Q})
		}
	}
	return tg
}

func (tr *sliceTrace) LastTopologyChange() Time {
	last := Time(0)
	for i := range tr.events {
		if ev := &tr.events[i]; int(ev.Kind) < len(temporalKind) && ev.At > last {
			last = ev.At
		}
	}
	return last
}

func (tr *sliceTrace) SessionStatistics() SessionStats {
	var st SessionStats
	events := 0
	for _, ev := range tr.events {
		if ev.Kind == TJoin || ev.Kind == TLeave {
			events++
		}
	}
	var sum Time
	for _, ivs := range tr.sessions(BridgeNone) {
		for _, iv := range ivs {
			st.Sessions++
			if iv.To <= tr.end {
				st.Completed++
				length := iv.To - iv.From
				sum += length
				if length > st.MaxLength {
					st.MaxLength = length
				}
			}
		}
	}
	if st.Completed > 0 {
		st.MeanLength = float64(sum) / float64(st.Completed)
	}
	if tr.end > 0 {
		st.EventsPerTick = float64(events) / float64(tr.end)
	}
	return st
}

func (tr *sliceTrace) Messages(tag string) MessageStats {
	var ms MessageStats
	for _, ev := range tr.events {
		if tag != "" && ev.Tag != tag {
			continue
		}
		switch ev.Kind {
		case TSend:
			ms.Sent++
		case TDeliver:
			ms.Delivered++
		case TDrop:
			ms.Dropped++
		}
	}
	return ms
}

func (tr *sliceTrace) FirstMark(tag string) (Time, bool) {
	for _, ev := range tr.events {
		if ev.Kind == TMark && ev.Tag == tag {
			return ev.At, true
		}
	}
	return 0, false
}

// chunkBoundaries lists the log lengths at which a chunk fills, up to
// limit: the lengths where the next Record opens a new chunk.
func chunkBoundaries(limit int) []int {
	var out []int
	for b, size := firstChunk, firstChunk; b <= limit; {
		out = append(out, b)
		size = min(2*size, maxChunk)
		b += size
	}
	return out
}

// randomEvent draws one event at or after t over a dozen entities, every
// kind and every lifecycle mark in the mix. Membership stays one a run
// could record (DecodeTrace rejects any other): a drawn Join of a
// present entity becomes its Leave and a Leave of an absent one its Join.
func randomEvent(r *rng.Rand, t Time, present map[graph.NodeID]bool) TraceEvent {
	tags := []string{MarkCrash, MarkRecover, MarkRejoin, "a", "b", ""}
	ev := TraceEvent{At: t + Time(r.Intn(2)), Kind: TraceEventKind(r.Intn(int(TMark) + 1)), P: graph.NodeID(1 + r.Intn(12))}
	switch ev.Kind {
	case TJoin, TLeave:
		if present[ev.P] {
			ev.Kind = TLeave
		} else {
			ev.Kind = TJoin
		}
		present[ev.P] = ev.Kind == TJoin
	case TEdgeUp, TEdgeDown, TSend, TDeliver, TDrop:
		ev.Q = graph.NodeID(1 + r.Intn(12))
		if ev.Q == ev.P {
			ev.Q = ev.P%12 + 1
		}
	}
	if ev.Kind >= TSend {
		ev.Tag = tags[r.Intn(len(tags))]
	}
	return ev
}

// sameEvents compares two event lists element by element, telling a nil
// list from an empty one as JSON encoding does.
func sameEvents(got, want []TraceEvent) bool {
	return (got == nil) == (want == nil) && slices.Equal(got, want)
}

// replayDigest folds every snapshot a full replay visits into a list of
// (time, nodes, edges) rows.
func replayDigest(tg *graph.Temporal) [][3]int64 {
	var out [][3]int64
	tg.Replay(math.MinInt64, math.MaxInt64, func(t int64, g *graph.Graph) {
		out = append(out, [3]int64{t, int64(g.NumNodes()), int64(g.NumEdges())})
	})
	return out
}

// TestEventLogMatchesSliceReference records random traces whose lengths
// straddle the first chunk and several later chunk boundaries, and after
// every append compares the chunked trace with the slice-backed
// reference: Len, End and the EventsSince cursors at the tip after every
// append, and every reader, EventsSince from -1 to past the end and an
// encode/decode round trip at 0, 1 and each boundary -1, +0, +1.
func TestEventLogMatchesSliceReference(t *testing.T) {
	bounds := chunkBoundaries(3 * maxChunk)
	limit := bounds[len(bounds)-1] + 2
	full := map[int]bool{0: true, 1: true}
	for _, b := range bounds {
		full[b-1], full[b], full[b+1] = true, true, true
	}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		tr, ref := &Trace{}, &sliceTrace{}
		present := make(map[graph.NodeID]bool)
		var at Time
		for n := 0; n <= limit; n++ {
			if n > 0 {
				ev := randomEvent(r, at, present)
				at = ev.At
				tr.Record(ev)
				ref.events = append(ref.events, ev)
				ref.end = at
			}
			if tr.Len() != ref.Len() || tr.End() != ref.end {
				t.Fatalf("seed %d n=%d: Len/End = %d/%d, reference %d/%d", seed, n, tr.Len(), tr.End(), ref.Len(), ref.end)
			}
			for _, i := range []int{n - 1, n, n + 1} {
				if got, want := tr.EventsSince(i), ref.EventsSince(i); !sameEvents(got, want) {
					t.Fatalf("seed %d n=%d: EventsSince(%d) = %v, reference %v", seed, n, i, got, want)
				}
			}
			if full[n] {
				compareWithReference(t, tr, ref, n <= maxChunk/4+1)
			}
		}
	}
}

// compareWithReference checks every reader of tr against ref. every
// selects EventsSince at every cursor; otherwise the cursors sample each
// chunk's first, last and a stride in between.
func compareWithReference(t *testing.T, tr *Trace, ref *sliceTrace, every bool) {
	t.Helper()
	n := ref.Len()
	check := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: %s = %v, reference %v", n, what, got, want)
		}
	}
	if !sameEvents(tr.Events(), ref.Events()) {
		t.Fatalf("n=%d: Events differ from the reference", n)
	}
	edges := map[int]bool{}
	for _, b := range chunkBoundaries(n) {
		edges[b-1], edges[b], edges[b+1] = true, true, true
	}
	for i := -1; i <= n+1; i++ {
		if every || edges[i] || i%97 == 0 || i >= n-1 {
			if !sameEvents(tr.EventsSince(i), ref.EventsSince(i)) {
				t.Fatalf("n=%d: EventsSince(%d) differs from the reference", n, i)
			}
		}
	}
	var walked []TraceEvent
	tr.Each(func(ev *TraceEvent) { walked = append(walked, *ev) })
	check("Each", walked, ref.events)
	check("MaxConcurrency", tr.MaxConcurrency(), ref.MaxConcurrency())
	for _, tag := range []string{"", "a", "b", "absent"} {
		check("Messages("+tag+")", tr.Messages(tag), ref.Messages(tag))
	}
	for _, tag := range []string{MarkCrash, MarkRecover, "a", "absent"} {
		at, ok := tr.FirstMark(tag)
		rat, rok := ref.FirstMark(tag)
		check("FirstMark("+tag+")", [2]any{at, ok}, [2]any{rat, rok})
	}
	check("LastTopologyChange", tr.LastTopologyChange(), ref.LastTopologyChange())
	check("SessionStatistics", tr.SessionStatistics(), ref.SessionStatistics())
	check("Sessions", tr.Sessions(), ref.sessions(BridgeNone))
	check("SessionsBridgingRecovery", tr.SessionsBridgingRecovery(), ref.sessions(BridgeRecovery))
	check("SessionsBridgingRejoin", tr.SessionsBridgingRejoin(), ref.sessions(BridgeRejoin))
	tg, rtg := tr.Temporal(), ref.Temporal()
	check("Temporal events", tg.Events(), rtg.Events())
	check("Temporal replay", replayDigest(tg), replayDigest(rtg))

	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatalf("n=%d: encode: %v", n, err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatalf("n=%d: decode: %v", n, err)
	}
	check("round trip", back.Events(), ref.Events())
	check("round trip End", back.End(), ref.end)
}

// TestEventLogNeverMovesEvents: recording past several chunk boundaries
// leaves every earlier event where it was — a pointer Each handed out
// stays valid and unchanged, which a doubling slice could not promise.
func TestEventLogNeverMovesEvents(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	var first *TraceEvent
	tr.Each(func(ev *TraceEvent) { first = ev })
	for i := 0; i < 3*maxChunk; i++ {
		tr.Send(Time(i), 1, 2, "m")
	}
	var again *TraceEvent
	tr.Each(func(ev *TraceEvent) {
		if again == nil {
			again = ev
		}
	})
	if first != again || first.Kind != TJoin || first.P != 1 {
		t.Fatalf("the first event moved or changed: %p %+v, now %p", first, *first, again)
	}
	if got := len(tr.log.chunks); got < 3 {
		t.Fatalf("%d events fill only %d chunks", tr.Len(), got)
	}
}
