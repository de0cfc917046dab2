package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := buildChurnTrace()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.End() != tr.End() {
		t.Fatalf("End = %d, want %d", got.End(), tr.End())
	}
	a, b := tr.Events(), got.Events()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The decoded trace supports analysis directly.
	if got.MaxConcurrency() != tr.MaxConcurrency() {
		t.Fatal("analysis differs after round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDecodeRejectsOutOfOrder(t *testing.T) {
	in := `{"end": 10, "events": [
		{"At": 5, "Kind": 0, "P": 1, "Q": 0, "Tag": ""},
		{"At": 3, "Kind": 0, "P": 2, "Q": 0, "Tag": ""}
	]}`
	if _, err := DecodeTrace(strings.NewReader(in)); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
}

// impossibleTraces are inputs no run can record, each with the text its
// rejection must carry (every one names the offending event's index).
var impossibleTraces = []struct{ name, in, want string }{
	{"negative time", `{"end": 5, "events": [{"At": -3, "Kind": 0, "P": 1}]}`,
		"event 0 at negative time -3"},
	{"join of a present entity", `{"end": 5, "events": [
		{"At": 0, "Kind": 0, "P": 1}, {"At": 2, "Kind": 0, "P": 1}]}`,
		"event 1 joins 1, which is already present"},
	{"leave of an absent entity", `{"end": 5, "events": [{"At": 0, "Kind": 1, "P": 1}]}`,
		"event 0 leaves 1, which is absent"},
	{"end before the last event", `{"end": 1, "events": [
		{"At": 0, "Kind": 0, "P": 1}, {"At": 7, "Kind": 1, "P": 1}]}`,
		"end 1 precedes event 1 at t=7"},
	{"negative identity", `{"end": 5, "events": [{"At": 1, "Kind": 0, "P": -1}]}`,
		"event 0 names identity -1, outside [0, 2147483647]"},
	{"negative edge endpoint", `{"end": 5, "events": [
		{"At": 0, "Kind": 0, "P": 1}, {"At": 2, "Kind": 2, "P": 1, "Q": -4}]}`,
		"event 1 names identity -4, outside [0, 2147483647]"},
}

func TestDecodeRejectsImpossibleTraces(t *testing.T) {
	for _, c := range impossibleTraces {
		_, err := DecodeTrace(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestDecodeEmptyTrace(t *testing.T) {
	tr, err := DecodeTrace(strings.NewReader(`{"end": 0, "events": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}
