package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestMoments(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestEmptySample(t *testing.T) {
	s := &Sample{}
	for name, f := range map[string]func() float64{
		"Mean": s.Mean, "Max": s.Max,
		"P50": func() float64 { return s.Percentile(50) },
	} {
		if !math.IsNaN(f()) {
			t.Errorf("%s of empty sample is not NaN", name)
		}
	}
}

func TestAddBool(t *testing.T) {
	s := &Sample{}
	s.AddBool(true)
	s.AddBool(true)
	s.AddBool(false)
	s.AddBool(true)
	if got := s.Mean(); got != 0.75 {
		t.Fatalf("success rate = %v, want 0.75", got)
	}
}

func TestPercentiles(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := map[float64]float64{0: 1, 100: 10, 50: 5.5, 25: 3.25, 90: 9.1}
	for p, want := range cases {
		if got := s.Percentile(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileSingleton(t *testing.T) {
	s := sampleOf(42)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Errorf("P%v of singleton = %v", p, got)
		}
	}
}

// Property: percentiles are monotone in p and bounded by the sample's
// min (1) and max.
func TestPercentileMonotone(t *testing.T) {
	s := sampleOf(3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
	if err := quick.Check(func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va <= vb && va >= 1 && vb <= s.Max()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("proto", "rate", "ok")
	tb.AddRow("flood", 0.51234, true)
	tb.AddRow("echo-wave", 1.0, false)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "proto") || !strings.Contains(lines[0], "ok") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "0.512") {
		t.Fatalf("float not rendered to 3 places: %q", lines[2])
	}
	if !strings.Contains(lines[3], "1") {
		t.Fatalf("integral float not rendered bare: %q", lines[3])
	}
	// Columns align: "rate" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "rate")
	for _, ln := range lines[2:] {
		if len(ln) <= idx {
			t.Fatalf("row shorter than header: %q", ln)
		}
	}
}

func TestTableNaNDash(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow(math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Fatal("NaN not rendered as dash")
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestTableOverlongRowPanics(t *testing.T) {
	tb := NewTable("a")
	defer func() {
		if recover() == nil {
			t.Fatal("overlong row did not panic")
		}
	}()
	tb.AddRow(1, 2)
}

func TestTableMasked(t *testing.T) {
	tb := NewTable("n", "rate", "ok")
	tb.AddRow(16, 1234.5, true)
	tb.AddRow(64, 99.0, false)
	tb.Context("rate")
	want := "n   rate  ok\n--  ----  -----\n16  ~     true\n64  ~     false\n"
	if got := tb.Masked(); got != want {
		t.Fatalf("masked:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(tb.String(), "1234.500") {
		t.Fatalf("Masked changed what String renders:\n%s", tb.String())
	}
}

func TestTableContextUnknownColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Context on a missing column did not panic")
		}
	}()
	NewTable("a").Context("b")
}
