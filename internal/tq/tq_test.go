package tq

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynreg"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// stored returns the replica's current copy at the given member.
func stored(w *node.World, id graph.NodeID) (Value, bool) {
	p := w.Proc(id)
	if p == nil {
		return Value{}, false
	}
	b, ok := node.FindBehavior[*replica](p.Behavior())
	if !ok || !b.active {
		return Value{}, false
	}
	return b.cur, true
}

// meshWorld builds a fully-connected static world with n bootstrapped
// members.
func meshWorld(c *Client, n int, ncfg node.Config) (*node.World, *sim.Engine) {
	e := sim.New()
	w := node.NewWorld(e, topology.NewMesh(), c.Factory(), ncfg)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 0)
	return w, e
}

func countMarks(tr *core.Trace, prefix string) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == core.TMark && (ev.Tag == prefix || strings.HasPrefix(ev.Tag, prefix+":")) {
			n++
		}
	}
	return n
}

func TestStaticQuorumWriteRead(t *testing.T) {
	c := NewClient(Config{Seed: 1})
	w, e := meshWorld(c, 16, node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
	tag := c.Write(w, 1, 42)
	if tag != 1 {
		t.Fatalf("first write got tag %d", tag)
	}
	e.RunUntil(100)
	if got := c.Counters().WriteQuorums; got != 1 {
		t.Fatalf("write did not certify: counters %+v", c.Counters())
	}
	op := c.Read(w, 9)
	if op == 0 {
		t.Fatal("read did not launch")
	}
	e.RunUntil(200)
	w.Close()
	cc := c.Counters()
	if cc.ReadQuorums != 1 || cc.ReadSofts != 0 || cc.Retries != 0 {
		t.Fatalf("read did not certify cleanly: %+v", cc)
	}
	rep := Check(w.Trace)
	if !rep.OK() || rep.Reads != 1 || rep.WriteQuorums != 1 {
		t.Fatalf("checker: %+v", rep)
	}
	if countMarks(w.Trace, MarkRead) != 1 {
		t.Fatal("missing read mark")
	}
	// The read must have returned the written value, flagged ok.
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TMark && strings.HasPrefix(ev.Tag, MarkRead+":") {
			if !strings.HasSuffix(ev.Tag, ":1:42:"+FlagOK) {
				t.Fatalf("read mark %q, want tag 1 val 42 flag ok", ev.Tag)
			}
		}
	}
}

// A joiner that has not acquired state still gets its reads served by a
// quorum of value-holding replicas — where dynreg refuses the read until
// the join protocol completes.
func TestInactiveJoinerReadIsServed(t *testing.T) {
	c := NewClient(Config{Seed: 2})
	w, e := meshWorld(c, 9, node.Config{MinLatency: 1, MaxLatency: 2, Seed: 2})
	c.Write(w, 1, 7)
	e.RunUntil(100)
	w.Join(99)
	if _, has := stored(w, 99); has {
		t.Fatal("fresh joiner unexpectedly holds a value")
	}
	c.Read(w, 99)
	e.RunUntil(200)
	w.Close()
	if c.Counters().ReadQuorums != 1 {
		t.Fatalf("joiner read not served: %+v", c.Counters())
	}
	if rep := Check(w.Trace); !rep.OK() || rep.Reads != 1 {
		t.Fatalf("checker: %+v", rep)
	}
}

// Edge case: the lease expires mid-assembly. Channel latency exceeds the
// attempt window, so every attempt's responses come home after its lease
// ran out — they must be discarded (not counted toward a later attempt's
// quorum) and the operation must fail soft once the budget is spent.
func TestLeaseExpiresMidAssembly(t *testing.T) {
	c := NewClient(Config{Seed: 3, Lease: 16})
	w, e := meshWorld(c, 16, node.Config{MinLatency: 30, MaxLatency: 40, Seed: 3})
	c.Write(w, 1, 5)
	e.RunUntil(600)
	w.Close()
	cc := c.Counters()
	if cc.WriteSofts != 1 || cc.WriteQuorums != 0 {
		t.Fatalf("write should have soft-failed: %+v", cc)
	}
	if cc.Retries != retryBudget {
		t.Fatalf("want exactly retryBudget=%d retries, got %d", retryBudget, cc.Retries)
	}
	if cc.LateResponses == 0 {
		t.Fatal("expired attempts' responses were never seen arriving late")
	}
	rep := Check(w.Trace)
	if rep.WriteSofts != 1 || rep.Retries != retryBudget || rep.WriteQuorums != 0 {
		t.Fatalf("checker: %+v", rep)
	}
	if countMarks(w.Trace, MarkRetry) != retryBudget || countMarks(w.Trace, MarkWriteSoft) != 1 {
		t.Fatal("retry/soft marks missing from trace")
	}
}

// Edge case: retry budget exhaustion on an isolated initiator — no
// neighbors, so no quorum can ever assemble. The operation must retry on
// the deterministic backoff schedule and then fail soft with the
// best-known (local) value instead of hanging.
func TestRetryBudgetExhaustionSoftFail(t *testing.T) {
	c := NewClient(Config{Seed: 4, Lease: 20})
	e := sim.New()
	// A manual overlay with no links: members are present but isolated.
	w := node.NewWorld(e, topology.NewManual(), c.Factory(), node.Config{Seed: 4})
	for i := 1; i <= 9; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 17)
	c.Write(w, 1, 5)
	c.Read(w, 2)
	// Budget 3, lease 20, backoff 8/16/32: the last attempt expires at
	// 4*20 + (8+16+32) = 136 ticks after launch.
	e.RunUntil(200)
	w.Close()
	cc := c.Counters()
	if cc.WriteSofts != 1 || cc.ReadSofts != 1 {
		t.Fatalf("operations did not soft-fail: %+v", cc)
	}
	if cc.Retries != 6 {
		t.Fatalf("want 3 retries per op, got %d total", cc.Retries)
	}
	// The soft read returns the reader's own bootstrap copy, flagged.
	found := false
	for _, ev := range w.Trace.Events() {
		if ev.Kind == core.TMark && strings.HasPrefix(ev.Tag, MarkRead+":") {
			found = true
			if !strings.HasSuffix(ev.Tag, ":0:17:"+FlagSoft) {
				t.Fatalf("soft read mark %q, want tag 0 val 17 flag soft", ev.Tag)
			}
		}
	}
	if !found {
		t.Fatal("soft read produced no result mark")
	}
	rep := Check(w.Trace)
	if rep.WriteSofts != 1 || rep.Soft != 1 || rep.Reads != 1 || !rep.OK() {
		t.Fatalf("checker: %+v", rep)
	}
}

// Edge case: the writer crashes mid-write (after wstart, before its
// quorum assembles). The op dies with the entity — wend is never marked
// — but the replica's stored value survives through the stable store, so
// the recovered writer bridges the gap and the next write proceeds from
// the client's surviving tag counter.
func TestCrashMidWriteRecoveryBridging(t *testing.T) {
	c := NewClient(Config{Seed: 5})
	w, e := meshWorld(c, 9, node.Config{MinLatency: 2, MaxLatency: 3, Seed: 5})
	e.RunUntil(10)
	c.Write(w, 1, 11)
	// Crash before any response can land (latency floor is 2 ticks).
	w.Crash(1)
	e.RunUntil(50)
	w.Recover(1)
	if v, ok := stored(w, 1); !ok || v.Tag != 1 || v.Val != 11 {
		t.Fatalf("recovered replica lost its copy: %+v ok=%v", v, ok)
	}
	// The interrupted write is not certified...
	if c.Counters().WriteQuorums != 0 {
		t.Fatalf("crashed write certified: %+v", c.Counters())
	}
	// ...and the next write bridges: fresh tag, full quorum.
	if tag := c.Write(w, 1, 12); tag != 2 {
		t.Fatalf("post-recovery write got tag %d, want 2", tag)
	}
	c.Read(w, 5)
	e.RunUntil(200)
	w.Close()
	cc := c.Counters()
	if cc.WriteQuorums != 1 || cc.ReadQuorums != 1 {
		t.Fatalf("post-recovery ops did not certify: %+v", cc)
	}
	rep := Check(w.Trace)
	if !rep.OK() || rep.UnfinishedWrites != 1 || rep.WriteQuorums != 1 {
		t.Fatalf("checker: %+v", rep)
	}
}

// The churn estimator sizes the lease from measured turnover: a static
// world keeps the lease at MaxLease, a churning one pulls it down.
func TestChurnSizedLease(t *testing.T) {
	c := NewClient(Config{Seed: 6})
	e := sim.New()
	w := node.NewWorld(e, topology.NewRing(6), c.Factory(), node.Config{Seed: 6})
	for i := 1; i <= 20; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 0)
	tick := c.Attach(w)
	defer tick.Stop()
	if c.EffectiveLease() != c.cfg.MaxLease {
		t.Fatalf("pre-churn lease %d, want MaxLease", c.EffectiveLease())
	}
	// One join + one leave every 5 ticks: per-member turnover
	// 2/(20*5) = 0.02, so the auto lease is 0.5/0.02 = 25.
	next := graph.NodeID(21)
	gone := graph.NodeID(1)
	churner := e.Every(5, func() {
		w.Join(next)
		next++
		w.Leave(gone)
		gone++
	})
	defer churner.Stop()
	e.RunUntil(300)
	if c.MeasuredRate() <= 0 {
		t.Fatal("estimator measured no churn")
	}
	lease := c.EffectiveLease()
	if lease < minLease || lease >= c.cfg.MaxLease {
		t.Fatalf("churn-sized lease %d outside [minLease, MaxLease)", lease)
	}
	if lease < 20 || lease > 32 {
		t.Fatalf("lease %d far from the 25 the turnover implies", lease)
	}
}

// Seeded differential against dynreg on churn-free worlds: same ring,
// same op schedule — both register families must be perfectly regular
// and serve every read.
func TestDifferentialVsDynregChurnFree(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		const n, horizon = 12, 400

		// tq world.
		c := NewClient(Config{Seed: seed})
		e1 := sim.New()
		w1 := node.NewWorld(e1, topology.NewRing(seed), c.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: seed})
		for i := 1; i <= n; i++ {
			w1.Join(graph.NodeID(i))
		}
		c.Bootstrap(w1, 0)
		// dynreg world, same shape.
		reg := &dynreg.Register{SpreadInterval: 3, WriteWindow: 40}
		e2 := sim.New()
		w2 := node.NewWorld(e2, topology.NewRing(seed), reg.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: seed})
		for i := 1; i <= n; i++ {
			w2.Join(graph.NodeID(i))
		}
		reg.Bootstrap(w2, 0)

		for k := 0; k < 3; k++ {
			at := sim.Time(50 + 100*k)
			val := float64(k + 1)
			e1.At(at, func() { c.Write(w1, 1, val) })
			e2.At(at, func() { reg.Write(w2, 1, val) })
		}
		for k := 0; k < 15; k++ {
			at := sim.Time(60 + 20*k)
			id := graph.NodeID(1 + k%n)
			e1.At(at, func() { c.Read(w1, id) })
			e2.At(at, func() { reg.Read(w2, id) })
		}
		e1.RunUntil(horizon)
		e2.RunUntil(horizon)
		w1.Close()
		w2.Close()

		tqRep := Check(w1.Trace)
		drRep := dynreg.Check(w2.Trace)
		if !tqRep.OK() || !drRep.OK() {
			t.Fatalf("seed %d: violations on a churn-free world: tq %+v dynreg %+v", seed, tqRep, drRep)
		}
		if tqRep.Reads != 15 || tqRep.Unfinished != 0 || tqRep.Soft != 0 {
			t.Fatalf("seed %d: tq did not serve all 15 reads cleanly: %+v", seed, tqRep)
		}
		if drRep.Reads != 15 || drRep.NotServed != 0 {
			t.Fatalf("seed %d: dynreg did not serve all 15 reads: %+v", seed, drRep)
		}
		if tqRep.WriteQuorums != 3 {
			t.Fatalf("seed %d: tq certified %d of 3 writes", seed, tqRep.WriteQuorums)
		}
	}
}
