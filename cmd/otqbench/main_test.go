package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for otqbench: re-executed with
// OTQBENCH_AS_MAIN set it runs main on its arguments, so tests observe
// the real exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("OTQBENCH_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedFlags pins the command lines otqbench refuses: exit status
// 2, one "otqbench: ..." line on stderr and nothing on stdout, before any
// experiment runs.
func TestRejectedFlags(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-seeds 0", "-seeds 0: every cell needs at least one seed"},
		{"-seeds -1", "-seeds -1: every cell needs at least one seed"},
		{"-only E99", "no experiment matches -only=E99"},
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "OTQBENCH_AS_MAIN=1")
		var out, errOut strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errOut
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("otqbench %s: %v, want exit status 2", tc.args, err)
		}
		if want := "otqbench: " + tc.want + "\n"; errOut.String() != want {
			t.Errorf("otqbench %s: stderr = %q, want %q", tc.args, errOut.String(), want)
		}
		if out.String() != "" {
			t.Errorf("otqbench %s: stdout = %q, want nothing", tc.args, out.String())
		}
	}
}
