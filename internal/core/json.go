package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// Trace serialization: a small JSON format so recorded runs can be saved,
// shipped, and re-checked offline (cmd/classcheck reads it).

type traceJSON struct {
	End    Time         `json:"end"`
	Events []TraceEvent `json:"events"`
}

// EncodeTrace writes the trace as JSON.
func EncodeTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceJSON{End: tr.End(), Events: tr.Events()})
}

// DecodeTrace reads a JSON trace written by EncodeTrace. It accepts only
// what a run can record: events at non-negative times in non-decreasing
// order, naming identities in [0, graph.MaxNodeID], a Join only of an absent entity, a Leave only of a present one,
// and an end no earlier than the last event. Edge events may name an
// absent endpoint: a crashed entity's edges linger in the overlay, so
// later edge-downs still name it.
func DecodeTrace(r io.Reader) (*Trace, error) {
	var tj traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tj); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	tr := &Trace{}
	present := make(map[graph.NodeID]bool)
	for i, ev := range tj.Events {
		if ev.At < 0 {
			return nil, fmt.Errorf("core: trace event %d at negative time %d", i, ev.At)
		}
		if tr.count > 0 && ev.At < tr.lastAt {
			return nil, fmt.Errorf("core: trace event %d out of order (t=%d after t=%d)",
				i, ev.At, tr.lastAt)
		}
		if ev.Kind > TMark {
			return nil, fmt.Errorf("core: trace event %d has unknown kind %d", i, ev.Kind)
		}
		if ev.P < 0 || ev.Q < 0 {
			return nil, fmt.Errorf("core: trace event %d names identity %d, outside [0, %d]", i, min(ev.P, ev.Q), graph.MaxNodeID)
		}
		if (ev.Kind == TEdgeUp || ev.Kind == TEdgeDown) && ev.P == ev.Q {
			return nil, fmt.Errorf("core: trace event %d is a self-loop edge on %d", i, ev.P)
		}
		switch ev.Kind {
		case TJoin:
			if present[ev.P] {
				return nil, fmt.Errorf("core: trace event %d joins %d, which is already present", i, ev.P)
			}
			present[ev.P] = true
		case TLeave:
			if !present[ev.P] {
				return nil, fmt.Errorf("core: trace event %d leaves %d, which is absent", i, ev.P)
			}
			delete(present, ev.P)
		}
		tr.Record(ev)
	}
	if n := len(tj.Events); n > 0 && tj.End < tj.Events[n-1].At {
		return nil, fmt.Errorf("core: trace end %d precedes event %d at t=%d",
			tj.End, n-1, tj.Events[n-1].At)
	}
	tr.Close(tj.End)
	return tr, nil
}
