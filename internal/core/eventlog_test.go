package core

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
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
// reference: Len and End after every append, and every reader and an
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
			if full[n] {
				compareWithReference(t, tr, ref)
			}
		}
	}
}

// compareWithReference checks every reader of tr against ref.
func compareWithReference(t *testing.T, tr *Trace, ref *sliceTrace) {
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
	var replayed []TraceEvent
	tr.Replay(func(ev TraceEvent) { replayed = append(replayed, ev) })
	check("Replay", replayed, ref.events)
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
// leaves every stored chunk's backing array where it was and its records
// unchanged — a record is written once, which a doubling slice could not
// promise.
func TestEventLogNeverMovesEvents(t *testing.T) {
	tr := &Trace{}
	tr.Join(0, 1)
	type chunkAt struct {
		base  *logRecord
		first logRecord
	}
	var seen []chunkAt
	for i := 0; i < 3*maxChunk; i++ {
		tr.Send(Time(i), 1, 2, "m")
		for k, c := range tr.log.chunks {
			if k == len(seen) {
				seen = append(seen, chunkAt{base: &c[:1][0], first: c[0]})
			}
			if now := &c[:1][0]; now != seen[k].base || c[0] != seen[k].first {
				t.Fatalf("after %d events chunk %d moved or changed: %p %+v, was %p %+v",
					tr.Len(), k, now, c[0], seen[k].base, seen[k].first)
			}
		}
	}
	if got := len(tr.log.chunks); got < 3 {
		t.Fatalf("%d events fill only %d chunks", tr.Len(), got)
	}
	if first := tr.log.chunks[0][0]; first.kind != TJoin || first.P != 1 {
		t.Fatalf("the first record is %+v, want the join of 1", first)
	}
}

// TestEventLogRecordLayout guards the retained log's layout: a stored
// record holds no pointer the collector would scan and fits 24 bytes.
func TestEventLogRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(logRecord{})
	if typ.Size() > 24 {
		t.Errorf("logRecord is %d bytes, want at most 24", typ.Size())
	}
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(typ, "logRecord")
	walk(reflect.TypeOf(tickRun{}), "tickRun")
}

// recordMix records events from up to to over a handful of tags, event i
// at tick i/perTick, cycling through sends, deliveries, marks and edges.
func recordMix(tr *Trace, from, to, perTick int) {
	tags := [...]string{"flood", "echo", "ack", MarkRejoin, ""}
	for i := from; i < to; i++ {
		at, p, q := Time(i/perTick), graph.NodeID(i%64), graph.NodeID((i+1)%64)
		switch tag := tags[i%len(tags)]; i % 4 {
		case 0:
			tr.Send(at, p, q, tag)
		case 1:
			tr.Deliver(at, q, p, tag)
		case 2:
			tr.Mark(at, p, tag)
		default:
			tr.EdgeUp(at, p, q)
		}
	}
}

// TestRecordFullBytesPerEvent: full retention stores an event in its
// 24-byte record plus its share of the tick column and of the last
// chunk's slack — at most 26 bytes of heap per event at 64 events a tick.
func TestRecordFullBytesPerEvent(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := &Trace{}
	recordMix(tr, 0, n, 64)
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 26 {
		t.Errorf("recording %d full-retention events allocated %.2f B/event, want at most 26", n, per)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}

// TestRecordCountOnlyAllocatesNothing: once its tags are known, a
// count-only Record allocates nothing, whatever the kind.
func TestRecordCountOnlyAllocatesNothing(t *testing.T) {
	tr := &Trace{}
	tr.SetCountOnly(true)
	recordMix(tr, 0, 64, 8)
	i := 64
	if allocs := testing.AllocsPerRun(1000, func() {
		recordMix(tr, i, i+4, 8)
		i += 4
	}); allocs != 0 {
		t.Errorf("count-only Record allocated %.1f times per 4 events, want 0", allocs)
	}
}
