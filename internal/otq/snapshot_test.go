package otq

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestEchoSnapshotsStayImmutable: an echo-wave entity ships one shared
// contributor set per version instead of a copy per neighbour, and every
// version is a prefix of the entity's growing set. Under duplicated and
// corrupted delivery, every set shipped must still hold at the end of the
// run exactly what it held when it was sent — no receiver, duplicate,
// tampered copy or later growth may write through the sharing.
func TestEchoSnapshotsStayImmutable(t *testing.T) {
	plan, err := fault.Parse("dup:p=0.4;corrupt:p=0.05;seed=7")
	if err != nil {
		t.Fatal(err)
	}
	proto := &EchoWave{}
	e := sim.New()
	w := node.NewWorld(e, topology.NewRandomK(3, 3), proto.Factory(), node.Config{MinLatency: 1, MaxLatency: 3, Seed: 3})
	for i := 1; i <= 24; i++ {
		w.Join(graph.NodeID(i))
	}
	plan.Attach(w)
	type shipment struct {
		set  *[]contrib
		then []contrib
	}
	var sent []shipment
	w.SetSenderHook(func(_ sim.Time, _, _ graph.NodeID, _ string, _ uint64, payload any) (any, bool) {
		if m, ok := payload.(echoSetMsg); ok {
			sent = append(sent, shipment{m.Contrib, slices.Clone(m.set())})
		}
		return nil, false
	})
	proto.Launch(w, 1)
	e.RunUntil(300)
	w.Close()

	sets := map[*[]contrib]bool{}
	for i, s := range sent {
		sets[s.set] = true
		if !slices.Equal(*s.set, s.then) {
			t.Fatalf("push %d: its contributor set changed after it was sent: %v then, %v now", i, s.then, *s.set)
		}
	}
	if len(sets) >= len(sent) {
		t.Fatalf("%d pushes shipped %d distinct sets: no push shared its version's snapshot", len(sent), len(sets))
	}
	fabricated := false
	for _, c := range w.Proc(1).Behavior().(*echoWaveBehavior).known {
		fabricated = fabricated || c.ID >= fabricatedBase
	}
	if !fabricated {
		t.Fatal("no corrupted copy reached the querier: the tamper path went unexercised")
	}
}

// TestEchoPayloadAccountingUnchanged pins E16's exact-wave cost columns
// for seed 1 — total contributor entries shipped and the largest single
// message — at the figures the copy-per-push wave produced: sharing one
// snapshot per version still counts every push at its full size.
func TestEchoPayloadAccountingUnchanged(t *testing.T) {
	for _, c := range []struct {
		n              int
		entries, maxes int64
	}{{16, 2482, 16}, {32, 16704, 32}, {64, 95358, 64}} {
		e := sim.New()
		echo := &EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 3000}
		w := node.NewWorld(e, topology.NewManual(), echo.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: 1})
		joinCycle(w, c.n)
		echo.Launch(w, 1)
		e.RunUntil(sim.Time(40*c.n + 2000))
		if echo.PayloadEntries() != c.entries || echo.MaxPayload() != c.maxes {
			t.Errorf("n=%d: PayloadEntries %d, MaxPayload %d; want %d, %d",
				c.n, echo.PayloadEntries(), echo.MaxPayload(), c.entries, c.maxes)
		}
	}
}

// TestIDSetMatchesMap: an echo-wave entity's membership test answers as
// a map would, over dense small IDs, the fabricated range, IDs past the
// bitset and negative ones.
func TestIDSetMatchesMap(t *testing.T) {
	r := rng.New(5)
	var s idSet
	ref := map[graph.NodeID]bool{}
	for i := 0; i < 5000; i++ {
		var id graph.NodeID
		switch r.Intn(4) {
		case 0:
			id = graph.NodeID(r.Intn(200))
		case 1:
			id = graph.NodeID(fabricatedBase + r.Intn(1000))
		case 2:
			id = graph.NodeID(idSetBits - 100 + r.Intn(200))
		default:
			id = -graph.NodeID(r.Intn(200)) - 1
		}
		if got, want := s.add(id), !ref[id]; got != want {
			t.Fatalf("add(%d) = %v after %d inserts, want %v", id, got, i, want)
		}
		ref[id] = true
	}
	if len(s.rest) == 0 || len(s.bits) == 0 {
		t.Fatalf("bitset of %d words, %d IDs in the fallback map: a path went unexercised", len(s.bits), len(s.rest))
	}
}
