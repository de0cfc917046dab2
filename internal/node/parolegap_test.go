package node

// Parole-deadline × rejoin-gap interaction: a quarantine holder that
// churns around its own parole deadline must neither restart the clock
// (deadlines are ABSOLUTE) nor fire parole twice from stale timers. The
// three tests straddle the deadline from both sides and hit it exactly.

import (
	"testing"

	"repro/internal/sim"
)

func paroleGapWorld(t *testing.T, leaveAt, joinAt sim.Time) *World {
	t.Helper()
	w, e, _ := authPairWorld(Config{
		Seed:     31,
		Auth:     AuthConfig{Enabled: true, Parole: 150},
		Identity: IdentityConfig{Durable: true},
	})
	e.At(5, func() { w.Proc(1).Send(2, "data", tamperInt{V: 1}) })
	e.At(10, func() { w.auth.quarantine(w, 2, 1) }) // parole deadline: 160
	e.At(leaveAt, func() { w.Leave(2) })
	e.At(joinAt, func() { w.Join(2) })
	return w
}

// TestParoleGapRejoinBeforeDeadline: the holder leaves and rejoins inside
// the parole window; the quarantine rides its record through the gap and
// parole fires at the ORIGINAL absolute deadline, exactly once (the
// pre-departure timer and the re-armed one agree on the deadline; only
// the first to fire acts).
func TestParoleGapRejoinBeforeDeadline(t *testing.T) {
	w := paroleGapWorld(t, 100, 140)
	e := w.Engine
	e.RunUntil(155)
	if !w.Quarantined(2, 1) {
		t.Fatal("parole fired before the original deadline")
	}
	e.RunUntil(300)
	w.Close()

	if w.Quarantined(2, 1) {
		t.Fatal("parole never fired after the rejoin")
	}
	if at, ok := w.Trace.FirstMark(MarkAuthParole); !ok || at != 160 {
		t.Fatalf("parole mark at %d (ok=%v), want exactly 160", at, ok)
	}
	if got := countMarks(w.Trace, MarkAuthParole); got != 1 {
		t.Fatalf("%d parole marks, want 1 (stale timers must no-op)", got)
	}
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 1 {
		t.Fatalf("post-parole budget %d, want 1 (halved from 3 across the gap)", got)
	}
}

// TestParoleGapRejoinAfterDeadline: the holder is still absent when its
// parole deadline passes, so nothing fires (the verdict is the holder's
// state, and the holder is gone); the rejoin restores the quarantine with
// an expired deadline and paroles IMMEDIATELY — at the rejoin tick, not
// deadline + another full parole term.
func TestParoleGapRejoinAfterDeadline(t *testing.T) {
	w := paroleGapWorld(t, 100, 200)
	e := w.Engine
	e.RunUntil(180)
	if got := countMarks(w.Trace, MarkAuthParole); got != 0 {
		t.Fatalf("%d parole marks while the holder was absent, want 0", got)
	}
	e.RunUntil(400)
	w.Close()

	if w.Quarantined(2, 1) {
		t.Fatal("expired-deadline quarantine still standing after the rejoin")
	}
	if at, ok := w.Trace.FirstMark(MarkAuthParole); !ok || at != 200 {
		t.Fatalf("parole mark at %d (ok=%v), want 200 (immediately on rejoin, clock NOT restarted)", at, ok)
	}
	if got := countMarks(w.Trace, MarkAuthParole); got != 1 {
		t.Fatalf("%d parole marks, want 1", got)
	}
	if got := w.auth.budget(w.auth.linkOf(2, 1)); got != 1 {
		t.Fatalf("post-parole budget %d, want 1", got)
	}
}

// TestParoleGapRejoinAtDeadline: rejoining at the deadline tick itself —
// the sharpest straddle — paroles at exactly the original deadline, so
// the absolute clock holds even when restore and expiry coincide.
func TestParoleGapRejoinAtDeadline(t *testing.T) {
	w := paroleGapWorld(t, 150, 160)
	w.Engine.RunUntil(400)
	w.Close()

	if w.Quarantined(2, 1) {
		t.Fatal("quarantine survived its own deadline")
	}
	if at, ok := w.Trace.FirstMark(MarkAuthParole); !ok || at != 160 {
		t.Fatalf("parole mark at %d (ok=%v), want exactly 160", at, ok)
	}
	if got := countMarks(w.Trace, MarkAuthParole); got != 1 {
		t.Fatalf("%d parole marks, want 1", got)
	}
}
