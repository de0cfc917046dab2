package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeTrace hardens the trace decoder against malformed input: it
// must either return an error or produce a trace whose analysis functions
// do not panic.
func FuzzDecodeTrace(f *testing.F) {
	// Seed corpus: a valid trace, truncations, corruptions, and the traces
	// no run can record.
	var buf bytes.Buffer
	tr := &Trace{}
	tr.Join(0, 1)
	tr.Join(0, 2)
	tr.EdgeUp(0, 1, 2)
	tr.Leave(9, 2)
	tr.Close(20)
	if err := EncodeTrace(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(strings.Replace(valid, `"At":9`, `"At":-9`, 1))
	f.Add(`{"end": 5, "events": [{"At": 3, "Kind": 99, "P": 1}]}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`[1,2,3]`)
	for _, c := range impossibleTraces {
		f.Add(c.in)
	}

	f.Fuzz(func(t *testing.T, in string) {
		got, err := DecodeTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		// A successfully decoded trace must be analyzable end to end.
		got.MaxConcurrency()
		got.Entities()
		got.Sessions()
		got.StableBetween(0, got.End())
		got.LastTopologyChange()
		InferClass(got)
		CheckClass(got, Class{Size: SizeBoundedUnknown, Geo: GeoUnconstrained})
	})
}
