package node

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// wireOf returns the bytes a pooled payload carries.
func wireOf(payload any) []byte {
	switch p := payload.(type) {
	case *Frame:
		return p.B
	case *PexExchange:
		return p.Wire
	}
	return nil
}

// isFree reports how many times payload sits on its world's free lists.
func isFree(w *World, payload any) int {
	n := 0
	for _, l := range w.frames.freeFrames {
		for _, f := range l {
			if any(f) == payload {
				n++
			}
		}
	}
	for _, ex := range w.frames.freeExchanges {
		if any(ex) == payload {
			n++
		}
	}
	return n
}

// TestFramesDoNotAlias: every frame and exchange the pool hands out, fresh
// or recycled, is zeroed and has cap == len, so appending to one
// reallocates instead of writing into a neighbour, and two live payloads
// never share a header. Live payloads are released in a random order
// while new ones are drawn, so most hand-outs after the first rounds are
// reuses; frames too large to pool are mixed in.
func TestFramesDoNotAlias(t *testing.T) {
	w := NewWorld(sim.New(), topology.NewMesh(), nil, Config{})
	p := w.Join(graph.NodeID(1))
	r := rng.New(7)
	type live struct {
		payload any
		b       []byte
		fill    byte
	}
	var held []live
	fresh := map[any]bool{}
	reused := 0
	for i := 0; i < 3000; i++ {
		var payload any
		var b []byte
		if r.Intn(3) == 0 {
			n := 1 + r.Intn(exchangeBuf)
			ex := w.frames.exchange(r.Intn(2) == 0, n)
			payload, b = ex, ex.Wire
		} else {
			n := 1 + r.Intn(300)
			if r.Intn(97) == 0 {
				n = frameOwnAlloc + 1 + r.Intn(100)
			}
			f := p.Frame(n)
			payload, b = f, f.B
		}
		if len(b) != cap(b) {
			t.Fatalf("hand-out %d: len %d cap %d", i, len(b), cap(b))
		}
		if !bytes.Equal(b, make([]byte, len(b))) {
			t.Fatalf("hand-out %d (%d bytes) was not zeroed", i, len(b))
		}
		if fresh[payload] {
			reused++
		}
		fresh[payload] = true
		for _, h := range held {
			if h.payload == payload {
				t.Fatalf("hand-out %d shares a header with a live payload", i)
			}
		}
		fill := byte(1 + i%250)
		for j := range b {
			b[j] = fill
		}
		held = append(held, live{payload, b, fill})
		if len(held) > 40 || (len(held) > 0 && r.Intn(2) == 0) {
			k := r.Intn(len(held))
			for _, h := range held {
				_ = append(h.b, 0xee, 0xee, 0xee)
			}
			for _, h := range held {
				if !bytes.Equal(h.b, bytes.Repeat([]byte{h.fill}, len(h.b))) {
					t.Fatalf("hand-out %d: an append reached a live payload's bytes", i)
				}
			}
			switch pl := held[k].payload.(type) {
			case *Frame:
				p.ReleaseFrame(pl)
			case *PexExchange:
				w.frames.releaseExchange(pl)
			}
			held = append(held[:k], held[k+1:]...)
		}
	}
	if reused < 1000 {
		t.Fatalf("only %d of 3000 hand-outs reused a recycled payload", reused)
	}
}

// reception is one pooled payload a speaker's Receive read.
type reception struct {
	at   sim.Time
	to   graph.NodeID
	b    []byte
	free bool // the payload was on the free list while being read
}

// speaker is a small frame-speaking behaviour: it copies out the bytes of
// every payload it receives, noting whether that payload was already
// recycled, and entity 2 forwards "fwd" traffic, the received payload
// itself, to entity 3.
type speaker struct{ got *[]reception }

func (s speaker) Init(*Proc) {}

func (s speaker) Receive(p *Proc, m Message) {
	if m.Tag != "data" && m.Tag != "fwd" {
		return
	}
	*s.got = append(*s.got, reception{p.Now(), p.ID, bytes.Clone(wireOf(m.Payload)), isFree(p.world, m.Payload) > 0})
	if m.Tag == "fwd" && p.ID == 2 {
		p.Send(3, "fwd", m.Payload)
	}
}

// lastDeliver is the tick of the last delivery of tag to entity to.
func lastDeliver(tr *core.Trace, tag string, to graph.NodeID) int64 {
	at := int64(-1)
	tr.Replay(func(ev core.TraceEvent) {
		if ev.Kind == core.TDeliver && ev.Tag == tag && ev.P == to {
			at = int64(ev.At)
		}
	})
	return at
}

// TestFrameLifetimes walks a pooled payload through every path that
// retains a copy of it. In each row entity 1 draws the payload, fills it,
// sends it at tick 0 and releases it; the latency is one tick. Every
// receiver must read exactly the bytes sent (a recycled buffer reads as
// recycledByte), and the payload must reach the free list exactly once,
// at the tick its last copy was delivered or settled and not before.
func TestFrameLifetimes(t *testing.T) {
	dropFirst := func(w *World) {
		dropped := false
		w.SetChannelHook(func(_ sim.Time, _, _ graph.NodeID, tag string) ChannelFault {
			switch {
			case tag == "data" && !dropped:
				dropped = true
				return ChannelFault{Drop: true}
			case tag == AckTag:
				return ChannelFault{ExtraDelay: 8}
			}
			return ChannelFault{}
		})
	}
	fault := func(fl ChannelFault) func(*World) {
		return func(w *World) {
			w.SetChannelHook(func(_ sim.Time, _, _ graph.NodeID, tag string) ChannelFault {
				if tag == "data" {
					return fl
				}
				return ChannelFault{}
			})
		}
	}
	lie := []byte{9, 9, 9}
	at := func(tick int64) func(*World) (int64, int64) {
		return func(*World) (int64, int64) { return tick, tick }
	}
	rows := []struct {
		name     string
		cfg      Config
		exchange bool // send a pooled PexExchange instead of a Frame
		setup    func(w *World)
		send     func(w *World, p *Proc, payload any)
		readers  []graph.NodeID // in reading order
		want     []byte         // what the readers read, if not what was sent
		// freeAt is the window of ticks at which the payload must reach
		// the free list.
		freeAt func(w *World) (lo, hi int64)
	}{
		{name: "plain delivery", readers: []graph.NodeID{2}, freeAt: at(1)},
		{name: "no edge", send: func(_ *World, p *Proc, f any) { p.Send(9, "data", f) }, freeAt: at(0)},
		{name: "loss", setup: fault(ChannelFault{Drop: true}), freeAt: at(0)},
		{name: "replay", setup: fault(ChannelFault{ReplayAfter: 5}), readers: []graph.NodeID{2, 2}, freeAt: at(6)},
		{name: "dup", setup: fault(ChannelFault{Duplicates: 2}), readers: []graph.NodeID{2, 2, 2}, freeAt: at(1)},
		{name: "delay", setup: fault(ChannelFault{ExtraDelay: 7}), readers: []graph.NodeID{2}, freeAt: at(8)},
		{
			name: "audit hold",
			cfg: Config{Auth: AuthConfig{Enabled: true},
				Audit: AuditConfig{Enabled: true, HoldFor: 5}},
			readers: []graph.NodeID{2}, freeAt: at(6),
		},
		{
			// The first copy is lost; the retransmission lands, and its
			// ack, eight ticks late, settles the tracked message.
			name: "reliable retransmit, late ack", cfg: Config{Reliable: ReliableConfig{Enabled: true}},
			setup: dropFirst, readers: []graph.NodeID{2},
			freeAt: func(w *World) (int64, int64) {
				tick := lastDeliver(w.Trace, AckTag, 1)
				return tick, tick
			},
		},
		{
			name: "poison substitution", exchange: true,
			setup: func(w *World) {
				w.SetSenderHook(func(_ sim.Time, _, _ graph.NodeID, _ string, _ uint64, payload any) (any, bool) {
					ex := payload.(*PexExchange)
					return &PexExchange{Pull: ex.Pull, Wire: lie}, true
				})
			},
			readers: []graph.NodeID{2}, want: lie, freeAt: at(0),
		},
		{
			name:    "forwarded by the receiver",
			send:    func(_ *World, p *Proc, f any) { p.Send(2, "fwd", f) },
			readers: []graph.NodeID{2, 3}, freeAt: at(2),
		},
		{
			name: "one frame to two peers",
			send: func(_ *World, p *Proc, f any) {
				p.Send(2, "data", f)
				p.Send(3, "data", f)
			},
			readers: []graph.NodeID{2, 3}, freeAt: at(1),
		},
		{
			name: "sender departs",
			send: func(w *World, p *Proc, f any) {
				p.Send(2, "data", f)
				w.Leave(1)
			},
			readers: []graph.NodeID{2}, freeAt: at(1),
		},
		{
			// The ack finds no sender; the retry timer settles the message.
			name: "sender departs, reliable", cfg: Config{Reliable: ReliableConfig{Enabled: true}},
			send: func(w *World, p *Proc, f any) {
				p.Send(2, "data", f)
				w.Leave(1)
			},
			readers: []graph.NodeID{2},
			freeAt:  func(*World) (int64, int64) { return 6, 6 + retryJitter },
		},
		{
			name: "receiver departs",
			send: func(w *World, p *Proc, f any) {
				p.Send(2, "data", f)
				w.Leave(2)
			},
			freeAt: at(1),
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := sim.New()
			var got []reception
			cfg := row.cfg
			cfg.Seed, cfg.MinLatency, cfg.MaxLatency = 3, 1, 1
			w := NewWorld(e, topology.NewMesh(), func(graph.NodeID) Behavior { return speaker{&got} }, cfg)
			for id := graph.NodeID(1); id <= 3; id++ {
				w.Join(id)
			}
			if row.setup != nil {
				row.setup(w)
			}
			p := w.Proc(1)
			var payload any
			if row.exchange {
				payload = w.frames.exchange(true, 40)
			} else {
				payload = p.Frame(40)
			}
			sent := wireOf(payload)
			for i := range sent {
				sent[i] = byte(i + 1)
			}
			want := row.want
			if want == nil {
				want = bytes.Clone(sent)
			}
			send := row.send
			if send == nil {
				send = func(_ *World, p *Proc, f any) { p.Send(2, "data", f) }
			}
			send(w, p, payload)
			switch pl := payload.(type) {
			case *Frame:
				p.ReleaseFrame(pl)
			case *PexExchange:
				w.frames.releaseExchange(pl)
			}

			freedAt := int64(-1)
			if isFree(w, payload) > 0 {
				freedAt = 0
			}
			for e.Now() < 40 && e.Step() {
				n := isFree(w, payload)
				if n > 1 {
					t.Fatalf("on the free list %d times at tick %d", n, e.Now())
				}
				if n == 1 && freedAt < 0 {
					freedAt = int64(e.Now())
				}
				if n == 0 && freedAt >= 0 {
					t.Fatalf("left the free list at tick %d without being handed out", e.Now())
				}
			}
			if lo, hi := row.freeAt(w); freedAt < lo || freedAt > hi {
				t.Errorf("reached the free list at tick %d, want within [%d, %d]", freedAt, lo, hi)
			}
			var readers []graph.NodeID
			for _, r := range got {
				readers = append(readers, r.to)
				if !bytes.Equal(r.b, want) {
					t.Errorf("entity %d read %x at tick %d, want %x", r.to, r.b, r.at, want)
				}
				if r.free && row.want == nil {
					t.Errorf("entity %d read the payload at tick %d while it was on the free list", r.to, r.at)
				}
			}
			if !slices.Equal(readers, row.readers) {
				t.Errorf("readers %v, want %v", readers, row.readers)
			}
			if !bytes.Equal(sent, bytes.Repeat([]byte{recycledByte}, len(sent))) {
				t.Errorf("recycled bytes read %x, want every byte %#x", sent, recycledByte)
			}
		})
	}
}

// TestFrameDoubleReleasePanics: a creator pin can be dropped once; a
// second release panics rather than recycling a payload whose copies may
// still be in flight.
func TestFrameDoubleReleasePanics(t *testing.T) {
	w := NewWorld(sim.New(), topology.NewMesh(), nil, Config{MinLatency: 1, MaxLatency: 1})
	p := w.Join(1)
	w.Join(2)
	for _, tc := range []struct {
		name    string
		release func()
	}{
		{"frame in flight", func() {
			f := p.Frame(8)
			p.Send(2, "data", f)
			p.ReleaseFrame(f)
			p.ReleaseFrame(f)
		}},
		{"recycled frame", func() {
			f := p.Frame(8)
			p.ReleaseFrame(f)
			p.ReleaseFrame(f)
		}},
		{"unpooled frame", func() {
			f := p.Frame(frameOwnAlloc + 1)
			p.ReleaseFrame(f)
			p.ReleaseFrame(f)
		}},
		{"exchange", func() {
			ex := w.frames.exchange(false, 8)
			w.frames.releaseExchange(ex)
			w.frames.releaseExchange(ex)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("a second release did not panic")
				}
			}()
			tc.release()
		})
	}
}
