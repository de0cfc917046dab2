package tq

import (
	"strconv"
	"strings"

	"repro/internal/core"
)

// Report is the regularity checker's judgment of a run. The register is
// single-writer regular by intent: a completed read must return the last
// write that completed (reached its quorum) before the read started, or
// a concurrent/newer one. Soft and expired reads are judged by the same
// rule — tq's claim is that it DEGRADES by flagging honestly, not that
// flagged values get a pass.
type Report struct {
	// Writes started / quorum-certified / soft-failed / still open at
	// the horizon.
	Writes, WriteQuorums, WriteSofts, UnfinishedWrites int
	// Reads that returned a value (ok + expired + soft); Soft and
	// Expired break out the flagged subsets. NoValue counts soft-failed
	// reads that never saw any value (served as "no value", excluded
	// from Reads); Unfinished counts reads still open at the horizon
	// (initiator died or horizon cut the op).
	Reads, Soft, Expired, NoValue, Unfinished int
	// Stale counts reads that returned a write OLDER than the last
	// quorum-certified one — regularity violations. Fabricated counts
	// reads returning a tag never written.
	Stale, Fabricated int
	// MaxLag is the largest (lastCompletedTag - readTag) observed.
	MaxLag uint64
	// Retries counts attempt relaunches recorded in the trace.
	Retries int

	readLatSum, writeLatSum int64
	readLatN, writeLatN     int
}

// OK reports whether every value-returning read was regular.
func (rep Report) OK() bool { return rep.Stale == 0 && rep.Fabricated == 0 }

// ViolationRate returns the fraction of value-returning reads that
// violated regularity.
func (rep Report) ViolationRate() float64 {
	if rep.Reads == 0 {
		return 0
	}
	return float64(rep.Stale+rep.Fabricated) / float64(rep.Reads)
}

// MeanReadLatency returns the mean ticks from read start to its result
// mark (value-returning reads only).
func (rep Report) MeanReadLatency() float64 {
	if rep.readLatN == 0 {
		return 0
	}
	return float64(rep.readLatSum) / float64(rep.readLatN)
}

// MeanWriteLatency returns the mean ticks from write start to quorum
// certification (certified writes only).
func (rep Report) MeanWriteLatency() float64 {
	if rep.writeLatN == 0 {
		return 0
	}
	return float64(rep.writeLatSum) / float64(rep.writeLatN)
}

// StreamChecker is the incremental regularity checker: a core.Trace
// sink that judges tq marks at Record time, holding only open
// operations. Composed with count-only retention it judges worlds whose
// traces store zero events — same contract as otq.StreamChecker, so
// judged register runs scale to n>=1k lite worlds.
//
// Usage: sc := NewStreamChecker(); tr.Stream(sc.Observe); run;
// rep := sc.Finish().
type StreamChecker struct {
	rep           Report
	lastCompleted uint64
	maxStarted    uint64
	// openReads maps op -> (lastCompleted snapshot at rstart, start
	// time): regularity is judged against the state at read START.
	openReads map[uint64]openRead
	// openWrites maps tag -> wstart time for latency accounting.
	openWrites map[uint64]core.Time
}

type openRead struct {
	snap uint64
	at   core.Time
}

// NewStreamChecker returns a checker with no observations.
func NewStreamChecker() *StreamChecker {
	return &StreamChecker{
		openReads:  make(map[uint64]openRead),
		openWrites: make(map[uint64]core.Time),
	}
}

// Observe feeds one trace event. Non-mark events and foreign marks are
// ignored, so the sink composes with any other trace traffic.
func (sc *StreamChecker) Observe(ev core.TraceEvent) {
	if ev.Kind != core.TMark || !strings.HasPrefix(ev.Tag, "tq.") {
		return
	}
	parts := strings.Split(ev.Tag, ":")
	switch parts[0] {
	case MarkWriteStart:
		tag, ok := fieldUint(parts, 1)
		if !ok {
			return
		}
		sc.rep.Writes++
		if tag > sc.maxStarted {
			sc.maxStarted = tag
		}
		sc.openWrites[tag] = ev.At
	case MarkWriteEnd:
		tag, ok := fieldUint(parts, 1)
		if !ok {
			return
		}
		sc.rep.WriteQuorums++
		if tag > sc.lastCompleted {
			sc.lastCompleted = tag
		}
		if st, open := sc.openWrites[tag]; open {
			sc.rep.writeLatSum += int64(ev.At - st)
			sc.rep.writeLatN++
			delete(sc.openWrites, tag)
		}
	case MarkWriteSoft:
		tag, ok := fieldUint(parts, 1)
		if !ok {
			return
		}
		sc.rep.WriteSofts++
		delete(sc.openWrites, tag)
	case MarkReadStart:
		op, ok := fieldUint(parts, 1)
		if !ok {
			return
		}
		sc.openReads[op] = openRead{snap: sc.lastCompleted, at: ev.At}
	case MarkRead:
		op, ok1 := fieldUint(parts, 1)
		tag, ok2 := fieldUint(parts, 2)
		if !ok1 || !ok2 || len(parts) < 5 {
			return
		}
		or, open := sc.openReads[op]
		if !open {
			// A result without a recorded start: judge against the
			// current state (never produced by the protocol itself).
			or = openRead{snap: sc.lastCompleted, at: ev.At}
		}
		delete(sc.openReads, op)
		sc.rep.Reads++
		switch parts[4] {
		case FlagExpired:
			sc.rep.Expired++
		case FlagSoft:
			sc.rep.Soft++
		}
		switch {
		case tag > sc.maxStarted:
			sc.rep.Fabricated++
		case tag < or.snap:
			sc.rep.Stale++
			if lag := or.snap - tag; lag > sc.rep.MaxLag {
				sc.rep.MaxLag = lag
			}
		}
		sc.rep.readLatSum += int64(ev.At - or.at)
		sc.rep.readLatN++
	case MarkReadNone:
		op, ok := fieldUint(parts, 1)
		if !ok {
			return
		}
		delete(sc.openReads, op)
		sc.rep.NoValue++
	case MarkRetry:
		sc.rep.Retries++
	}
}

// Finish folds the still-open operations into the report and returns it.
func (sc *StreamChecker) Finish() Report {
	rep := sc.rep
	rep.Unfinished = len(sc.openReads)
	rep.UnfinishedWrites = len(sc.openWrites)
	return rep
}

func fieldUint(parts []string, i int) (uint64, bool) {
	if i >= len(parts) {
		return 0, false
	}
	v, err := strconv.ParseUint(parts[i], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
