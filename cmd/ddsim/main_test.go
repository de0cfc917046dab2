package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for ddsim: re-executed with
// DDSIM_AS_MAIN set it runs main on its arguments, so tests observe the
// real exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("DDSIM_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedFlags pins every command line ddsim refuses: exit status 2
// and exactly one "ddsim: ..." line on stderr — never a Go panic, which
// also exits 2 but prints a stack.
func TestRejectedFlags(t *testing.T) {
	cases := []struct{ args, want string }{
		{"-n 0", "-n 0: the founding population needs at least 1 entity (it hosts the querier and the register writer)"},
		{"-n 0 -protocol none -pex -tq", "-n 0: the founding population needs at least 1 entity (it hosts the querier and the register writer)"},
		{"-n 0 -protocol none -dynreg", "-n 0: the founding population needs at least 1 entity (it hosts the querier and the register writer)"},
		{"-horizon 0", "-horizon 0: the run needs a positive horizon"},
		{"-overlay random-k -k 0", "-k 0: the random-k overlay needs at least 1 neighbor"},
		{"-arrival 0.1 -session 0", "-session 0: arrivals need a positive mean session length"},
		{"-arrival -0.5", "-arrival -0.5: the arrival rate cannot be negative (0 = no churn)"},
		{"-double-every -5 -arrival 0.1", "-double-every -5: the doubling period cannot be negative (0 = a constant rate)"},
		{"-quiesce-at -3", "-quiesce-at -3: the quiescence tick cannot be negative (0 = churn never stops)"},
		{"-query-at 5000 -horizon 100", "-query-at 5000: the query must launch inside the run, in [0, -horizon 100]"},
		{"-query-at -5", "-query-at -5: the query must launch inside the run, in [0, -horizon 2000]"},
		{"-protocol flood-ttl -ttl 0", "-ttl 0: flood-ttl needs a positive TTL"},
		{"-protocol flood-repeat -ttl 0", "-ttl 0: flood-repeat needs a positive TTL"},
		{"-overlay nope", `unknown overlay "nope"`},
		{"-protocol nope", `unknown protocol "nope"`},
		{"-pex -pex-policy nope", `pex: unknown policy "nope" (want rand, head, tail, or pushpull)`},
		{"-pex -pex-view -3", "pex: ViewSize -3 below the 1-record minimum"},
		{"-poison nodes=4", "-poison requires -pex (there is no view traffic to poison)"},
		{"-protocol none -stream-check", "-stream-check without a query protocol has nothing to judge; drop it or pick a -protocol"},
		{"-lite-trace", "-lite-trace discards the events a post-hoc OTQ replay reads; add -stream-check or use -protocol none"},
		{"-tq -dynreg", "-tq and -dynreg are mutually exclusive — one world hosts one register"},
		{"-tq", "the register workloads replace the query; run with -protocol none"},
		{"-protocol none -dynreg -lite-trace", "-dynreg is judged by a batch trace scan, which -lite-trace discards; drop -lite-trace or use -tq (streaming checker)"},
		{"-protocol none -tq -write-every 0", "-write-every and -read-every must be positive"},
		{"-n 8 -protocol none -dynreg -horizon 100 -ops-at 200", "-ops-at 200: the first register operation must fall inside the run, in [0, -horizon 100) (0 = horizon/5)"},
		{"-n 8 -protocol none -pex -tq -horizon 100 -ops-at 100", "-ops-at 100: the first register operation must fall inside the run, in [0, -horizon 100) (0 = horizon/5)"},
		{"-protocol none -dynreg -ops-at -1", "-ops-at -1: the first register operation must fall inside the run, in [0, -horizon 2000) (0 = horizon/5)"},
		{"-protocol none -tq -tq-coeff -1", "tq: QuorumCoeff -1 must be a positive finite number"},
		{"-protocol none -dynreg -spread -1", "dynreg: SpreadInterval -1 must be non-negative (0 = default 4)"},
		{"-faults bogus", `clause 0: fault: unknown clause kind "bogus"`},
		{"-byzantine nope", `unknown -byzantine level "nope" (want one of [none corrupt replay+forge byz-storm equiv])`},
		{"-rejoin bogus", `fault: parameter "bogus" in "rejoin:bogus" is not key=value`},
		{"-reconfig bogus=1", `fault: parameter "bogus" not valid for "reconfig" clauses in "reconfig:bogus=1"`},
		{"-pex -poison bogus", `fault: parameter "bogus" in "poison:bogus" is not key=value`},
		{"-auth -parole -5", "node: negative auth Parole -5"},
		{"-cpuprofile /nonexistent/cpu.prof", "-cpuprofile: open /nonexistent/cpu.prof: no such file or directory"},
		{"-memprofile /nonexistent/mem.prof", "-memprofile: open /nonexistent/mem.prof: no such file or directory"},
		{"-pex-view 4", "-pex-view has no effect without -pex"},
		{"-pex-policy bogus", "-pex-policy has no effect without -pex"},
		{"-parole 50", "-parole has no effect without -auth, -audit or -pull"},
		{"-audit -pull-ttl 3", "-pull-ttl has no effect without -pull"},
		{"-protocol none -tq-coeff 1.6", "-tq-coeff has no effect without -tq"},
		{"-protocol none -dynreg -tq-ttl 4", "-tq-ttl has no effect without -tq"},
		{"-protocol none -tq-lease 20", "-tq-lease has no effect without -tq"},
		{"-protocol none -tq -spread 2", "-spread has no effect without -dynreg"},
		{"-protocol none -write-window 50", "-write-window has no effect without -dynreg"},
		{"-write-every 8", "-write-every has no effect without a register workload (-tq or -dynreg)"},
		{"-read-every 3", "-read-every has no effect without a register workload (-tq or -dynreg)"},
		{"-ops-at 50", "-ops-at has no effect without a register workload (-tq or -dynreg)"},
		{"-session 40", "-session has no effect without -arrival > 0"},
		{"-arrival 0 -double-every 100", "-double-every has no effect without -arrival > 0"},
		{"-quiesce-at 300", "-quiesce-at has no effect without -arrival > 0"},
		{"-k 4", "-k has no effect without -overlay random-k"},
		{"-pex -k 4", "-k has no effect without -overlay random-k"},
		{"-overlay random-k -k 4 -pex -n 16 -horizon 50 -protocol none", "-overlay has no effect without a configured overlay (-pex derives its own from the views)"},
		{"-overlay ring -pex", "-overlay has no effect without a configured overlay (-pex derives its own from the views)"},
		{"-protocol none -query-at 50", "-query-at has no effect without a query -protocol"},
		{"-ttl 3", "-ttl has no effect without -protocol flood-ttl or flood-repeat"},
		{"-protocol none -bridge-recoveries", "-bridge-recoveries has no effect without a query -protocol"},
		{"-protocol none -tq -bridge-rejoins", "-bridge-rejoins has no effect without a query -protocol"},
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), "DDSIM_AS_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ddsim %s: err = %v, want exit status 2", tc.args, err)
		}
		if got, want := stderr.String(), "ddsim: "+tc.want+"\n"; got != want {
			t.Errorf("ddsim %s: stderr = %q, want %q", tc.args, got, want)
		}
	}
}

// TestRegistersThroughCrashes runs both register workloads while two
// entities are crashed: a crashed reader must not be picked (its edges
// linger in the overlay, but it runs no behaviour), so each run exits 0
// with a verdict.
func TestRegistersThroughCrashes(t *testing.T) {
	for _, reg := range []string{"-tq", "-dynreg"} {
		args := []string{"-n", "16", "-protocol", "none", reg, "-faults", "crash:nodes=3+5,recover=80@60", "-read-every", "1", "-horizon", "300"}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DDSIM_AS_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Errorf("ddsim %v: %v", args, err)
			continue
		}
		if !strings.Contains(string(out), "\nverdict: ") {
			t.Errorf("ddsim %v printed no verdict:\n%s", args, out)
		}
	}
}

// TestProfileFlags runs one small world with and without -cpuprofile and
// -memprofile: both files are written and stdout is byte-identical.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	run := func(extra ...string) string {
		args := append([]string{"-n", "12", "-protocol", "flood-repeat", "-query-at", "10", "-horizon", "80"}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "DDSIM_AS_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ddsim %v: %v", args, err)
		}
		return string(out)
	}
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	plain, profiled := run(), run("-cpuprofile", cpu, "-memprofile", mem)
	if plain != profiled {
		t.Errorf("stdout changed under the profile flags:\nwithout:\n%s\nwith:\n%s", plain, profiled)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (err %v)", path, err)
		}
	}
}

func TestOverlayBuilder(t *testing.T) {
	for _, name := range []string{"mesh", "star", "ring", "random-k", "growing-path", "fragile"} {
		build, err := overlayBuilder(name, 3)
		if err != nil {
			t.Errorf("overlay %q: %v", name, err)
			continue
		}
		ov := build(7)
		if ov == nil || ov.Name() == "" {
			t.Errorf("overlay %q built badly", name)
		}
	}
	if _, err := overlayBuilder("nope", 3); err == nil {
		t.Error("unknown overlay accepted")
	}
}

func TestProtocolBuilder(t *testing.T) {
	ids := map[string]core.ProtocolID{
		"flood-ttl":       core.ProtoFloodTTL,
		"flood-repeat":    core.ProtoRepeatedFlood,
		"echo-wave":       core.ProtoEchoWave,
		"tree-echo":       core.ProtoTreeEcho,
		"expanding-ring":  core.ProtoExpandingRing,
		"gossip-push-sum": core.ProtoGossip,
	}
	for name, wantID := range ids {
		build, id, err := protocolBuilder(name, 4)
		if err != nil {
			t.Errorf("protocol %q: %v", name, err)
			continue
		}
		if id != wantID {
			t.Errorf("protocol %q mapped to %q", name, id)
		}
		p := build()
		if p.Name() != string(wantID) {
			t.Errorf("protocol %q builds %q", name, p.Name())
		}
	}
	if _, _, err := protocolBuilder("nope", 1); err == nil {
		t.Error("unknown protocol accepted")
	}
}
