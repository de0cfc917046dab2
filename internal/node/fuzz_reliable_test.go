package node

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// refReliable is the reliable sublayer's sender and receiver bookkeeping
// kept the way it once was, in maps keyed by sequence number: the model
// FuzzReliableWindow holds the window, the per-sender lists and the dedup
// bitset to.
type refReliable struct {
	seq       uint64
	pending   map[uint64]*refPending
	delivered map[uint64]bool
	counters  map[graph.NodeID]*ReliableCounters
}

type refPending struct {
	from     graph.NodeID
	epoch    uint64
	tag      string
	attempts int
}

func (ref *refReliable) hasOldPending(from graph.NodeID, e uint64) bool {
	for _, pm := range ref.pending {
		if pm.from == from && pm.epoch < e && !isReconfigTag(pm.tag) {
			return true
		}
	}
	return false
}

// FuzzReliableWindow drives random sends, acks (duplicate, settled,
// unknown and zero sequence numbers included), retransmission timeouts,
// give-ups, orphaned senders, leave/rejoin and arriving copies through the
// reliable sublayer and through refReliable, and compares them after
// every step: which messages are live, each sender's quiescence answer at
// every epoch, the dedup verdict of every arriving copy and each sender's
// counters. The engine never runs; timeouts are fired by hand. Inputs
// past maxSteps bytes are cut: every step is compared in full, so the
// cost of one input grows with the square of its length.
func FuzzReliableWindow(f *testing.F) {
	const maxSteps = 256
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1, 1, 2, 1, 2, 2, 6, 1, 6, 1})
	for seed := uint64(1); seed <= 16; seed++ {
		r := rng.New(seed)
		b := make([]byte, maxSteps)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxSteps)]
		const ids, epochs = 4, 3
		e := sim.New()
		w := NewWorld(e, topology.NewMesh(), nil, Config{
			Seed:     1,
			Reliable: ReliableConfig{Enabled: true, MaxRetries: 2},
		})
		for len(w.stacks) < epochs {
			w.stacks = append(w.stacks, w.stacks[0])
		}
		for id := graph.NodeID(1); id <= ids; id++ {
			w.Join(id)
		}
		rl := w.rel
		ref := &refReliable{
			pending:   map[uint64]*refPending{},
			delivered: map[uint64]bool{},
			counters:  map[graph.NodeID]*ReliableCounters{},
		}
		for id := graph.NodeID(1); id <= ids; id++ {
			ref.counters[id] = &ReliableCounters{}
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var lastAcked uint64
		for step := 0; len(data) > 0; step++ {
			what := ""
			switch op := next() % 8; op {
			case 0, 1:
				from := graph.NodeID(1 + next()%ids)
				to := graph.NodeID(1 + next()%ids)
				if to == from {
					to = from%ids + 1
				}
				epoch := uint64(next() % epochs)
				tag := "data"
				if next()%4 == 0 {
					tag = ReconfigPrepareTag
				}
				what = fmt.Sprintf("send %d→%d epoch %d %s", from, to, epoch, tag)
				p := w.Proc(from)
				if p == nil {
					break // a departed entity's Send is a drop, never tracked
				}
				rl.send(w, p, Message{From: from, To: to, Tag: tag, epoch: epoch})
				ref.seq++
				ref.pending[ref.seq] = &refPending{from: from, epoch: epoch, tag: tag}
			case 2, 3:
				seq := uint64(next()) % (ref.seq + 3)
				if op == 3 {
					seq = lastAcked
				}
				what = fmt.Sprintf("ack %d", seq)
				rl.onAck(w, nil, Message{Tag: AckTag, Payload: ackMsg{}, seq: seq})
				if pm := ref.pending[seq]; pm != nil {
					delete(ref.pending, seq)
					ref.counters[pm.from].Acked++
					lastAcked = seq
				}
			case 4:
				live := liveSeqs(ref)
				if len(live) == 0 {
					break
				}
				seq := live[next()%len(live)]
				what = fmt.Sprintf("timeout %d", seq)
				fireRetry(rl.tracked(seq))
				pm := ref.pending[seq]
				switch {
				case w.Proc(pm.from) == nil:
					delete(ref.pending, seq)
				case pm.attempts >= rl.cfg.MaxRetries:
					ref.counters[pm.from].GiveUps++
					delete(ref.pending, seq)
				default:
					pm.attempts++
					ref.counters[pm.from].Retries++
				}
			case 5:
				id := graph.NodeID(1 + next()%ids)
				if w.Proc(id) != nil {
					what = fmt.Sprintf("leave %d", id)
					w.Leave(id)
				} else {
					what = fmt.Sprintf("rejoin %d", id)
					w.Join(id)
				}
			case 6:
				if ref.seq == 0 {
					break // no copy can arrive before a number is handed out
				}
				seq := 1 + uint64(next())%ref.seq
				what = fmt.Sprintf("arrival %d", seq)
				got, want := rl.firstDelivery(seq), !ref.delivered[seq]
				ref.delivered[seq] = true
				if got != want {
					t.Fatalf("step %d (%s): first delivery %v, reference %v", step, what, got, want)
				}
			case 7:
				// A timeout firing for a settled record is a no-op.
				if n := len(rl.free); n > 0 {
					what = "stale timeout"
					fireRetry(rl.free[n-1])
				}
			}
			compareReliable(t, step, what, w, ref)
		}
	})
}

// liveSeqs lists the reference's live sequence numbers, ascending.
func liveSeqs(ref *refReliable) []uint64 {
	var out []uint64
	for seq := uint64(1); seq <= ref.seq; seq++ {
		if ref.pending[seq] != nil {
			out = append(out, seq)
		}
	}
	return out
}

func compareReliable(t *testing.T, step int, what string, w *World, ref *refReliable) {
	t.Helper()
	rl := w.rel
	if rl.seq != ref.seq {
		t.Fatalf("step %d (%s): seq %d, reference %d", step, what, rl.seq, ref.seq)
	}
	for seq := uint64(0); seq <= ref.seq+2; seq++ {
		pm, want := rl.tracked(seq), ref.pending[seq]
		if (pm != nil) != (want != nil) {
			t.Fatalf("step %d (%s): seq %d live %v, reference %v", step, what, seq, pm != nil, want != nil)
		}
		if pm != nil && (!pm.live || pm.m.seq != seq || pm.m.From != want.from || pm.attempts != want.attempts) {
			t.Fatalf("step %d (%s): seq %d tracked as %+v, reference %+v", step, what, seq, pm.m, *want)
		}
	}
	inWindow := 0
	for _, pm := range rl.window[rl.head:] {
		if pm != nil {
			inWindow++
		}
	}
	if inWindow != len(ref.pending) {
		t.Fatalf("step %d (%s): %d records in the window, reference %d live", step, what, inWindow, len(ref.pending))
	}
	for _, pm := range rl.free {
		if pm.live || pm.m.Payload != nil || pm.from != nil || pm.next != nil || pm.prev != nil {
			t.Fatalf("step %d (%s): free list holds an uncleared record %+v", step, what, *pm)
		}
	}
	for id, c := range ref.counters {
		s := rl.senders[id]
		listed := 0
		for pm := s.unacked; pm != nil; pm = pm.next {
			if pm.from != s || (pm.prev == nil) != (pm == s.unacked) || (pm.next != nil && pm.next.prev != pm) {
				t.Fatalf("step %d (%s): sender %d's list is broken at seq %d", step, what, id, pm.m.seq)
			}
			listed++
		}
		want := 0
		for _, pm := range ref.pending {
			if pm.from == id {
				want++
			}
		}
		if listed != want {
			t.Fatalf("step %d (%s): sender %d lists %d live messages, reference %d", step, what, id, listed, want)
		}
		for e := uint64(0); e <= uint64(len(w.stacks)); e++ {
			if got, want := s.hasOldPending(e), ref.hasOldPending(id, e); got != want {
				t.Fatalf("step %d (%s): sender %d hasOldPending(%d) %v, reference %v", step, what, id, e, got, want)
			}
		}
		if s.ReliableCounters != *c {
			t.Fatalf("step %d (%s): sender %d counters %+v, reference %+v", step, what, id, s.ReliableCounters, *c)
		}
	}
}
