package dynreg

import (
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

func staticWorld(reg *Register, n int) (*node.World, *sim.Engine) {
	e := sim.New()
	w := node.NewWorld(e, topology.NewRing(7), reg.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 7,
	})
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	reg.Bootstrap(w, 0)
	return w, e
}

func TestStaticReadYourWrite(t *testing.T) {
	reg := &Register{SpreadInterval: 3, WriteWindow: 40}
	w, e := staticWorld(reg, 10)
	reg.Write(w, 1, 42)
	if v, ok := reg.Read(w, 1); !ok || v != 42 {
		t.Fatalf("writer's own read = %v, %v", v, ok)
	}
	// After the write window, every member holds the value.
	e.RunUntil(100)
	for _, id := range w.Present() {
		if v, ok := reg.Read(w, id); !ok || v != 42 {
			t.Fatalf("member %d reads %v, %v after dissemination", id, v, ok)
		}
	}
	w.Close()
	rep := Check(w.Trace)
	if !rep.OK() {
		t.Fatalf("static run not regular: %+v", rep)
	}
	if rep.Reads != 11 {
		t.Fatalf("checker counted %d reads, want 11", rep.Reads)
	}
}

func TestInitialValueDisseminatesToJoiner(t *testing.T) {
	reg := &Register{SpreadInterval: 3}
	w, e := staticWorld(reg, 4)
	e.RunUntil(50)
	w.Join(99)
	if reg.Active(w, 99) {
		t.Fatal("joiner active before its join protocol completed")
	}
	e.RunUntil(100)
	if !reg.Active(w, 99) {
		t.Fatal("joiner never became active")
	}
	if v, ok := reg.Read(w, 99); !ok || v != 0 {
		t.Fatalf("joiner reads %v, %v; want the initial value 0", v, ok)
	}
}

func TestJoinerSeesLatestWrite(t *testing.T) {
	reg := &Register{SpreadInterval: 3, WriteWindow: 30}
	w, e := staticWorld(reg, 6)
	reg.Write(w, 1, 7)
	e.RunUntil(100)
	w.Join(50)
	e.RunUntil(200)
	if v, ok := reg.Read(w, 50); !ok || v != 7 {
		t.Fatalf("joiner reads %v, %v; want 7", v, ok)
	}
	w.Close()
	if rep := Check(w.Trace); !rep.OK() {
		t.Fatalf("run not regular: %+v", rep)
	}
}

func TestInactiveReadNotServed(t *testing.T) {
	reg := &Register{SpreadInterval: 3}
	e := sim.New()
	w := node.NewWorld(e, topology.NewManual(), reg.Factory(), node.Config{Seed: 1})
	w.Join(1) // isolated, never bootstrapped
	if _, ok := reg.Read(w, 1); ok {
		t.Fatal("inactive member served a read")
	}
	w.Close()
	rep := Check(w.Trace)
	if rep.NotServed != 1 || rep.Reads != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSequentialWritesMonotone(t *testing.T) {
	reg := &Register{SpreadInterval: 2, WriteWindow: 25}
	w, e := staticWorld(reg, 8)
	for i := 1; i <= 5; i++ {
		reg.Write(w, 1, float64(i*100))
		e.RunUntil(e.Now() + 60)
		// Sample every member after each settled write.
		for _, id := range w.Present() {
			reg.Read(w, id)
		}
	}
	w.Close()
	rep := Check(w.Trace)
	if !rep.OK() {
		t.Fatalf("settled sequential writes not regular: %+v", rep)
	}
}

// The churn hazard: a too-short write window declares completion before
// dissemination, so members still serve the old value — stale reads.
func TestTooShortWriteWindowViolatesRegularity(t *testing.T) {
	reg := &Register{SpreadInterval: 4, WriteWindow: 1}
	w, e := staticWorld(reg, 16)
	reg.Write(w, 1, 9)
	e.RunUntil(3) // the write has "completed", dissemination has not
	stale := 0
	for _, id := range w.Present() {
		if v, ok := reg.Read(w, id); ok && v != 9 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("fixture too lenient: dissemination beat the 1-tick window")
	}
	w.Close()
	rep := Check(w.Trace)
	if rep.OK() {
		t.Fatalf("checker missed %d stale reads: %+v", stale, rep)
	}
	if rep.Stale != stale {
		t.Fatalf("checker found %d stale, harness saw %d", rep.Stale, stale)
	}
}

func TestChurnedRunMostlyRegularAtLowChurn(t *testing.T) {
	reg := &Register{SpreadInterval: 3, WriteWindow: 60}
	e := sim.New()
	w := node.NewWorld(e, topology.NewRing(3), reg.Factory(), node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 3,
	})
	gen := churn.New(3, churn.Config{
		InitialPopulation: 12, Immortal: true,
		ArrivalRate: 0.02, Session: churn.ExpSessions(150),
	})
	w.ApplyChurn(gen, 2000)
	e.RunUntil(50)
	reg.Bootstrap(w, 0)
	val := 0.0
	writes := e.Every(150, func() {
		val++
		reg.Write(w, 1, val)
	})
	reads := e.Every(17, func() {
		present := w.Present()
		reg.Read(w, present[int(e.Now())%len(present)])
	})
	e.RunUntil(2000)
	writes.Stop()
	reads.Stop()
	w.Close()
	rep := Check(w.Trace)
	if rep.Reads < 50 {
		t.Fatalf("only %d reads sampled", rep.Reads)
	}
	if rep.Fabricated > 0 {
		t.Fatalf("fabricated reads: %+v", rep)
	}
	if rep.StaleRate() > 0.05 {
		t.Fatalf("stale rate %.3f at low churn, want ~0: %+v", rep.StaleRate(), rep)
	}
}

func TestCheckerParsesGarbageTagsSafely(t *testing.T) {
	// Marks from other protocols must not confuse the checker.
	reg := &Register{}
	w, e := staticWorld(reg, 2)
	w.Proc(1).Mark("otq.answer")
	w.Proc(1).Mark("dynreg.read:notanumber:1")
	e.RunUntil(5)
	w.Close()
	rep := Check(w.Trace)
	if rep.Reads != 0 || !rep.OK() {
		t.Fatalf("garbage marks miscounted: %+v", rep)
	}
}

func TestWritePanicsOnAbsentWriter(t *testing.T) {
	reg := &Register{}
	w, _ := staticWorld(reg, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("write at absent member did not panic")
		}
	}()
	reg.Write(w, 99, 1)
}

// TestConfigBoundaries probes each Register knob just inside and just
// outside its valid range, matching the node/config_test.go convention:
// zero fields mean the defaults and always validate.
func TestConfigBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		reg     Register
		wantErr string // "" = must validate
	}{
		{"zero value", Register{}, ""},
		{"spread at floor", Register{SpreadInterval: 1}, ""},
		{"spread negative", Register{SpreadInterval: -1}, "SpreadInterval"},
		{"window at default spread", Register{WriteWindow: 4}, ""},
		{"window below default spread", Register{WriteWindow: 3}, "WriteWindow"},
		{"window at explicit spread", Register{SpreadInterval: 10, WriteWindow: 10}, ""},
		{"window below explicit spread", Register{SpreadInterval: 10, WriteWindow: 9}, "WriteWindow"},
		{"window negative", Register{WriteWindow: -1}, "WriteWindow"},
	}
	for _, tc := range cases {
		err := tc.reg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validated, want error mentioning %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
