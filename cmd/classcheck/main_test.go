package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
)

// TestMain lets the test binary stand in for classcheck: re-executed with
// CLASSCHECK_AS_MAIN set it runs main on its arguments, so tests observe
// the real exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("CLASSCHECK_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runClasscheck runs classcheck on args and returns its stdout, stderr and
// exit status.
func runClasscheck(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CLASSCHECK_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		status = exit.ExitCode()
	default:
		t.Fatalf("classcheck %v: %v", args, err)
	}
	return out.String(), errOut.String(), status
}

// TestRejectedFlags pins every command line classcheck refuses: exit
// status 2, exactly one "classcheck: ..." line on stderr, and nothing on
// stdout — the refusal comes before any trace is generated or read.
func TestRejectedFlags(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-declare-size M^q", `unknown size model "M^q"`},
		{"-declare-size M^b -declare-geo diam-knwon", `unknown geography "diam-knwon"`},
		{"-declare-size M^b -declare-b -5", "-declare-b -5: a concurrency bound cannot be negative"},
		{"-declare-size static -declare-geo diam-known -declare-d -1", "-declare-d -1: a diameter bound cannot be negative"},
		{"-declare-geo complete", "-declare-geo without -declare-size declares no class; add -declare-size"},
		{"-declare-b 24", "-declare-b without -declare-size declares no class; add -declare-size"},
		{"-declare-d 3", "-declare-d without -declare-size declares no class; add -declare-size"},
		{"-declare-stable", "-declare-stable without -declare-size declares no class; add -declare-size"},
		{"-n -3", "-n -3: the initial population cannot be negative"},
		{"-horizon 0", "-horizon 0: the run needs a positive horizon"},
		{"-arrival -0.5", "-arrival -0.5: the arrival rate cannot be negative (0 = no arrivals)"},
		{"-session 0", "-session 0: sessions need a positive mean length"},
		{"-max-concurrent -1", "-max-concurrent -1: the concurrency cap cannot be negative (0 = uncapped)"},
		{"-double-every -5", "-double-every -5: the doubling period cannot be negative (0 = a constant rate)"},
		{"-quiesce-at -5", "-quiesce-at -5: the quiescence tick cannot be negative (0 = churn never stops)"},
		{"-overlay nope", `unknown overlay "nope" (want mesh, star, ring, random-k, growing-path, or fragile)`},
		{"-in /nonexistent/trace.json -declare-size bogus", `unknown size model "bogus"`},
	}
	for _, tc := range cases {
		stdout, stderr, status := runClasscheck(t, strings.Fields(tc.args)...)
		if status != 2 {
			t.Errorf("classcheck %s: exit status %d, want 2", tc.args, status)
		}
		if want := "classcheck: " + tc.want + "\n"; stderr != want {
			t.Errorf("classcheck %s: stderr = %q, want %q", tc.args, stderr, want)
		}
		if stdout != "" {
			t.Errorf("classcheck %s: stdout = %q, want nothing", tc.args, stdout)
		}
	}
}

// TestRejectionWritesNothing: a declared class that does not parse is
// refused before -out creates its file.
func TestRejectionWritesNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if _, _, status := runClasscheck(t, "-n", "8", "-horizon", "50", "-out", out, "-declare-size", "M^b", "-declare-geo", "diam-knwon"); status != 2 {
		t.Fatalf("exit status %d, want 2", status)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-out file exists after the rejection (stat err %v)", err)
	}
}

// TestDeclaredRun checks a small admissible run end to end: exit status 0.
func TestDeclaredRun(t *testing.T) {
	stdout, stderr, status := runClasscheck(t, "-n", "8", "-arrival", "0.1", "-session", "40", "-horizon", "120", "-declare-size", "M^n")
	if status != 0 || stderr != "" {
		t.Fatalf("exit status %d, stderr %q", status, stderr)
	}
	if !strings.Contains(stdout, "check: the run is admissible in the declared class") {
		t.Errorf("stdout lacks the admissible verdict:\n%s", stdout)
	}
}

// TestDiameterViolationLines pins the violation lines of a declared
// diameter bound below the run's: each prints its snapshot's exact
// diameter, which falls back below the run's largest (6, at t=0) and
// rises to it again.
func TestDiameterViolationLines(t *testing.T) {
	stdout, stderr, status := runClasscheck(t, "-n", "12", "-overlay", "ring", "-arrival", "0.1", "-session", "60", "-horizon", "200",
		"-declare-size", "M^n", "-declare-geo", "diam-known", "-declare-d", "4")
	if status != 1 || stderr != "" {
		t.Fatalf("exit status %d, stderr %q; want 1 and nothing", status, stderr)
	}
	want := `declared class: (M^n, diam<=4 known)
check: 32 violations
  t=0: snapshot diameter 6 exceeds declared bound D=4
  t=5: snapshot diameter 5 exceeds declared bound D=4
  t=10: snapshot diameter 5 exceeds declared bound D=4
  t=27: snapshot diameter 5 exceeds declared bound D=4
  t=29: snapshot diameter 5 exceeds declared bound D=4
  t=37: snapshot diameter 5 exceeds declared bound D=4
  t=38: snapshot diameter 6 exceeds declared bound D=4
  t=42: snapshot diameter 5 exceeds declared bound D=4
  t=44: snapshot diameter 6 exceeds declared bound D=4
  t=45: snapshot diameter 5 exceeds declared bound D=4
  ... and 22 more
`
	if !strings.HasSuffix(stdout, want) {
		t.Errorf("stdout does not end with the violation lines\n%s\ngot:\n%s", want, stdout)
	}
}

// TestOutWriteFailure: a trace that cannot be written fails the run with
// exit status 2 instead of reporting it written.
func TestOutWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fill")
	}
	stdout, stderr, status := runClasscheck(t, "-n", "8", "-horizon", "50", "-out", "/dev/full")
	if status != 2 || !strings.HasPrefix(stderr, "classcheck: -out: ") {
		t.Errorf("exit status %d, stderr %q; want 2 and a classcheck: -out: line", status, stderr)
	}
	if strings.Contains(stdout, "trace written") {
		t.Errorf("stdout reports the trace written:\n%s", stdout)
	}
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		size, geo string
		b, d      int
		stable    bool
		want      core.Class
	}{
		{"static", "complete", 8, 0, true,
			core.Class{Size: core.SizeStatic, B: 8, Geo: core.GeoComplete, EventuallyStable: true}},
		{"M^b", "diam-known", 16, 4, false,
			core.Class{Size: core.SizeBoundedKnown, B: 16, Geo: core.GeoDiameterKnown, D: 4}},
		{"mn", "diam-bounded", 0, 0, false,
			core.Class{Size: core.SizeBoundedUnknown, Geo: core.GeoDiameterBounded}},
		{"minf", "unconstrained", 0, 0, false,
			core.Class{Size: core.SizeUnbounded, Geo: core.GeoUnconstrained}},
	}
	for _, c := range cases {
		got, err := parseClass(c.size, c.b, c.geo, c.d, c.stable)
		if err != nil {
			t.Errorf("parseClass(%q, %q): %v", c.size, c.geo, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseClass(%q, %q) = %+v, want %+v", c.size, c.geo, got, c.want)
		}
	}
}

func TestParseClassErrors(t *testing.T) {
	if _, err := parseClass("weird", 0, "complete", 0, false); err == nil {
		t.Error("unknown size accepted")
	}
	if _, err := parseClass("static", 0, "weird", 0, false); err == nil {
		t.Error("unknown geography accepted")
	}
}

func TestGenerateOverlays(t *testing.T) {
	for _, name := range []string{"mesh", "star", "ring", "random-k", "growing-path", "fragile"} {
		tr := generate(name, 1, churn.Config{
			InitialPopulation: 6, ArrivalRate: 0.1, Session: churn.ExpSessions(40),
		}, 120)
		if len(tr.Entities()) == 0 {
			t.Errorf("overlay %q generated an empty trace", name)
		}
	}
}
