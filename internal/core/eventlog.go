package core

// eventLog is a full trace's append-only event store: a list of chunks
// that are never reallocated once made. Recording appends into the last
// chunk, or opens a new one when it is full, so an event is written once
// and never copied again — a single doubling slice re-copied the whole
// run on every growth, and at its peak held three copies' worth of it.
// Chunk capacities double from firstChunk up to maxChunk and then stay
// there, so tiny traces stay tiny and long ones waste at most one chunk.
type eventLog struct {
	chunks [][]TraceEvent
	n      int
}

const (
	firstChunk = 32
	maxChunk   = 4096
)

func (l *eventLog) append(ev TraceEvent) {
	k := len(l.chunks)
	if k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1]) {
		size := firstChunk
		if k > 0 {
			size = min(2*cap(l.chunks[k-1]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]TraceEvent, 0, size))
		k++
	}
	l.chunks[k-1] = append(l.chunks[k-1], ev)
	l.n++
}

// last returns the most recently recorded event, nil when there is none.
func (l *eventLog) last() *TraceEvent {
	if l.n == 0 {
		return nil
	}
	c := l.chunks[len(l.chunks)-1]
	return &c[len(c)-1]
}

// each calls visit on every event in record order.
func (l *eventLog) each(visit func(ev *TraceEvent)) {
	for _, c := range l.chunks {
		for i := range c {
			visit(&c[i])
		}
	}
}

// appendFrom appends the events from index start on (start >= 0) to dst.
func (l *eventLog) appendFrom(dst []TraceEvent, start int) []TraceEvent {
	for _, c := range l.chunks {
		if start >= len(c) {
			start -= len(c)
			continue
		}
		dst = append(dst, c[start:]...)
		start = 0
	}
	return dst
}
