package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeTrace hardens the trace decoder against malformed input: it
// must either return an error or produce a trace whose analysis functions
// do not panic, and on which the class judge agrees with the reference
// judges and with itself fed live.
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
		classes := []Class{
			{Size: SizeBoundedUnknown, Geo: GeoUnconstrained},
			{Size: SizeBoundedKnown, B: 2, Geo: GeoDiameterKnown, D: 1},
		}
		infer := NewClassJudge(nil)
		sinks := []func(TraceEvent){infer.Observe}
		var checks []*ClassJudge
		for i := range classes {
			checks = append(checks, NewClassJudge(&classes[i]))
			sinks = append(sinks, checks[i].Observe)
		}
		rerecord(got, false, sinks...)
		want := refInferClass(got)
		if c := InferClass(got); c != want {
			t.Fatalf("InferClass = %+v, reference %+v", c, want)
		}
		if c := infer.Class(got.End()); c != want {
			t.Fatalf("live class = %+v, reference %+v", c, want)
		}
		for i, c := range classes {
			want := refCheckClass(got, c)
			if rep := CheckClass(got, c); !reflect.DeepEqual(rep, want) {
				t.Fatalf("CheckClass(%s) =\n%+v\nreference\n%+v", c, rep, want)
			}
			if rep := checks[i].Report(got.End()); !reflect.DeepEqual(rep, want) {
				t.Fatalf("live CheckClass(%s) =\n%+v\nreference\n%+v", c, rep, want)
			}
		}
	})
}
