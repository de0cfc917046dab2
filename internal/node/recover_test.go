package node

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// counter is a Recoverable behavior: it counts "inc" messages and its
// count survives a crash through the snapshot.
type counter struct{ n int }

func (c *counter) Init(*Proc) {}
func (c *counter) Receive(_ *Proc, m Message) {
	if m.Tag == "inc" {
		c.n++
	}
}
func (c *counter) Snapshot() any { return c.n }
func (c *counter) Restore(_ *Proc, snap any) {
	c.n = snap.(int)
}

func TestCrashRecoveryRestoresSnapshot(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior {
		return &counter{}
	}, Config{Seed: 9})
	w.Join(1)
	w.Join(2)
	for i := 0; i < 3; i++ {
		i := i
		e.At(sim.Time(1+i), func() { w.Proc(1).Send(2, "inc", nil) })
	}
	e.RunUntil(10)
	if got := w.Proc(2).Behavior().(*counter).n; got != 3 {
		t.Fatalf("pre-crash count = %d", got)
	}

	w.Crash(2)
	if w.Proc(2) != nil {
		t.Fatal("crashed entity still present")
	}
	e.RunUntil(20)
	w.Recover(2)

	p := w.Proc(2)
	if p == nil || !p.Alive() {
		t.Fatal("recovered entity absent")
	}
	if got := p.Behavior().(*counter).n; got != 3 {
		t.Fatalf("recovered count = %d, want the snapshot's 3", got)
	}
	// The fresh behavior instance, not the dead one, must carry the state.
	if got := p.Neighbors(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("recovered neighbors = %v, want [1]", got)
	}

	// The entity must be reachable again: messages flow post-recovery.
	e.At(21, func() { w.Proc(1).Send(2, "inc", nil) })
	e.RunUntil(30)
	if got := p.Behavior().(*counter).n; got != 4 {
		t.Fatalf("post-recovery count = %d, want 4", got)
	}
	w.Close()

	// Trace shape: crash and recover marks flank a Leave/Join pair, the
	// plain session view shows the gap, the bridged view closes it.
	for _, tag := range []string{core.MarkCrash, core.MarkRecover} {
		found := false
		for _, ev := range w.Trace.Events() {
			if ev.Kind == core.TMark && ev.P == 2 && ev.Tag == tag {
				found = true
			}
		}
		if !found {
			t.Fatalf("mark %q missing from trace", tag)
		}
	}
	if got := len(w.Trace.Sessions()[2]); got != 2 {
		t.Fatalf("plain sessions = %d intervals, want 2", got)
	}
	if got := len(w.Trace.SessionsBridgingRecovery()[2]); got != 1 {
		t.Fatalf("bridged sessions = %d intervals, want 1", got)
	}
	// StableBetween across the gap: only the bridged notion keeps entity 2.
	plain := w.Trace.StableBetween(0, 30)
	if contains(plain, 2) {
		t.Fatalf("plain stability kept the crashed entity: %v", plain)
	}
	if bridged := w.Trace.SessionsBridgingRecovery()[2]; !bridged[0].Covers(0, 30) {
		t.Fatalf("bridged stability lost the recovered entity: %v", bridged)
	}
}

func contains(ids []graph.NodeID, id graph.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestRecoveryWithoutSnapshotStartsFresh: a non-Recoverable behavior (or
// an empty store) recovers through Init, like a new joiner reusing the
// old identity.
func TestRecoveryWithoutSnapshotStartsFresh(t *testing.T) {
	e := sim.New()
	w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior {
		return &collector{}
	}, Config{Seed: 9})
	w.Join(1)
	w.Join(2)
	e.At(1, func() { w.Proc(1).Send(2, "data", 7) })
	e.RunUntil(5)
	w.Crash(2)
	e.RunUntil(10)
	w.Recover(2)
	got := w.Proc(2).Behavior().(*collector).got
	if len(got) != 0 {
		t.Fatalf("non-recoverable behavior kept state across crash: %v", got)
	}
}

// TestRecoverPanicsWhenPresent: recovering a live entity is a driver bug.
func TestRecoverPanicsWhenPresent(t *testing.T) {
	w, _, _ := pairWorld(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Recover of a present entity did not panic")
		}
	}()
	w.Recover(1)
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Load(1); ok {
		t.Fatal("empty store claims a snapshot")
	}
	s.Save(1, "alpha")
	s.Save(1, "beta") // last write wins
	if v, ok := s.Load(1); !ok || v != "beta" {
		t.Fatalf("Load = %v, %v", v, ok)
	}
	s.Delete(1)
	if _, ok := s.Load(1); ok {
		t.Fatal("deleted snapshot still loadable")
	}
}
