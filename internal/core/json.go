package core

import (
	"encoding/json"
	"fmt"
	"io"
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

// DecodeTrace reads a JSON trace written by EncodeTrace. The events must
// be in non-decreasing time order (Record enforces it).
func DecodeTrace(r io.Reader) (*Trace, error) {
	var tj traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tj); err != nil {
		return nil, fmt.Errorf("core: decoding trace: %w", err)
	}
	tr := &Trace{}
	for i, ev := range tj.Events {
		if last := tr.log.last(); last != nil && ev.At < last.At {
			return nil, fmt.Errorf("core: trace event %d out of order (t=%d after t=%d)",
				i, ev.At, last.At)
		}
		if ev.Kind > TMark {
			return nil, fmt.Errorf("core: trace event %d has unknown kind %d", i, ev.Kind)
		}
		if (ev.Kind == TEdgeUp || ev.Kind == TEdgeDown) && ev.P == ev.Q {
			return nil, fmt.Errorf("core: trace event %d is a self-loop edge on %d", i, ev.P)
		}
		tr.Record(ev)
	}
	tr.Close(tj.End)
	return tr, nil
}
