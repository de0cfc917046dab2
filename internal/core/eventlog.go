package core

import "repro/internal/graph"

// eventLog is a full trace's append-only event store, kept pointer-free
// so the collector never scans it: a list of chunks of 16-byte records
// that are never reallocated once made, and a tick column. Recording
// appends into the last chunk, or opens a new one when it is full, so a
// record is written once and never copied again — a single doubling slice
// re-copied the whole run on every growth, and at its peak held three
// copies' worth of it. Chunk capacities double from firstChunk up to
// maxChunk and then stay there, so tiny traces stay tiny and long ones
// waste at most one chunk.
//
// A record carries no time: Record forces events into time order, so the
// tick column holds one entry per distinct tick, naming the index of its
// first event. Tags are ids into the trace's tagTable.
type eventLog struct {
	chunks [][]logRecord
	ticks  []tickRun
	n      int
}

// logRecord is one retained event without its time, its tag an id.
type logRecord struct {
	P, Q graph.NodeID
	tag  uint32
	kind TraceEventKind
}

// tickRun is one entry of the tick column: the events from index from up
// to the next entry's from all happened at tick at.
type tickRun struct {
	at   Time
	from int
}

const (
	firstChunk = 32
	maxChunk   = 4096
)

func (l *eventLog) append(ev *TraceEvent, tag uint32) {
	if k := len(l.ticks); k == 0 || l.ticks[k-1].at != ev.At {
		l.ticks = append(l.ticks, tickRun{at: ev.At, from: l.n})
	}
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := firstChunk
		if k > 0 {
			size = min(2*cap(l.chunks[k-1]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]logRecord, 0, size))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], logRecord{P: ev.P, Q: ev.Q, tag: tag, kind: ev.Kind})
	l.n++
}

// logCursor is a walk's position in the log: the next record's index,
// chunk and offset within it, and tick-column entry.
type logCursor struct{ i, ci, off, k int }

// next returns the next span of records that share a tick and a chunk,
// with their tick, and moves cur past it; the span is empty at the end.
func (l *eventLog) next(cur *logCursor) (Time, []logRecord) {
	if cur.k == len(l.ticks) {
		return 0, nil
	}
	end := l.n
	if cur.k+1 < len(l.ticks) {
		end = l.ticks[cur.k+1].from
	}
	at, c := l.ticks[cur.k].at, l.chunks[cur.ci][cur.off:]
	c = c[:min(len(c), end-cur.i)]
	cur.i, cur.off = cur.i+len(c), cur.off+len(c)
	if cur.off == len(l.chunks[cur.ci]) {
		cur.ci, cur.off = cur.ci+1, 0
	}
	if cur.i == end {
		cur.k++
	}
	return at, c
}

// tagTable interns a trace's tags: id 0 is "", and every other tag gets
// the next id the first time it is seen.
type tagTable struct {
	names []string
	ids   map[string]uint32
}

// noTags is the name list of a table that has interned nothing but "".
var noTags = []string{""}

// id returns tag's id, interning it if it is new.
func (t *tagTable) id(tag string) uint32 {
	if tag == "" {
		return 0
	}
	id, ok := t.ids[tag]
	if !ok {
		if t.ids == nil {
			t.ids = map[string]uint32{"": 0}
			t.names = []string{""}
		}
		id = uint32(len(t.names))
		t.names = append(t.names, tag)
		t.ids[tag] = id
	}
	return id
}

// lookup returns tag's id without interning it.
func (t *tagTable) lookup(tag string) (uint32, bool) {
	if tag == "" {
		return 0, true
	}
	id, ok := t.ids[tag]
	return id, ok
}

// list returns the names, indexed by id.
func (t *tagTable) list() []string {
	if t.names == nil {
		return noTags
	}
	return t.names
}
