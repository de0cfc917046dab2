// Package dynreg implements a shared register *inside* a dynamic
// distributed system — the problem the paper's authors pursued next
// (implementing registers under churn): every member keeps a local copy,
// updates spread epidemically along overlay edges, and joiners must run a
// join protocol to acquire state before serving reads.
//
// The register is single-writer regular by intent: a read must return the
// value of the last write that completed before it, or of some write
// concurrent with it. Whether the intent holds depends on the system
// class: the writer declares a write complete after a dissemination
// window sized from an assumed diameter/latency bound, and joiners adopt
// the state of whatever neighbor answers first. Under mild churn both
// assumptions hold and reads are regular; under heavy churn dissemination
// loses races with membership turnover and joiners inherit staleness —
// exactly the churn-rate threshold phenomenon of the dynamic-register
// literature. The trace-based checker (Check) counts the violations.
package dynreg

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Message tags.
const (
	tagUpdate   = "dynreg.update"
	tagStateReq = "dynreg.state-req"
	tagStateRep = "dynreg.state-rep"
)

// Trace mark prefixes (parsed by Check).
const (
	markWriteStart = "dynreg.wstart"
	markWriteEnd   = "dynreg.wend"
	markRead       = "dynreg.read"
	markNotServed  = "dynreg.read-not-served"
)

type copyMsg struct {
	Seq uint64
	Val float64
}

// Fingerprint implements node.Fingerprinter.
func (m copyMsg) Fingerprint() uint64 {
	const fpCopy = 0x6fd5ca040ad67e73
	return rng.Mix64(rng.Mix64(fpCopy^m.Seq) ^ math.Float64bits(m.Val))
}

// Register configures the replicated register and drives it from the
// harness side. A Register value drives a single world.
type Register struct {
	// SpreadInterval is the anti-entropy period of every member.
	// Default 4.
	SpreadInterval sim.Time
	// WriteWindow is how long after starting a write the writer declares
	// it complete — the protocol's stand-in for a known dissemination
	// bound. Default 40.
	WriteWindow sim.Time
	// MaxTicks bounds each member's anti-entropy activity. Default 100000.
	MaxTicks int

	writerSeq uint64
}

func (r *Register) spreadInterval() sim.Time {
	if r.SpreadInterval > 0 {
		return r.SpreadInterval
	}
	return 4
}

func (r *Register) writeWindow() sim.Time {
	if r.WriteWindow > 0 {
		return r.WriteWindow
	}
	return 40
}

func (r *Register) maxTicks() int {
	if r.MaxTicks > 0 {
		return r.MaxTicks
	}
	return 100000
}

// Validate reports the first configuration error, or nil. Zero fields
// are valid (they mean the defaults, which the error messages quote);
// negative values would silently fall back to the defaults inside the
// private getters, so they are rejected here instead — drivers
// assembling configs from user input (cmd/ddsim -dynreg) call Validate
// for a graceful message, matching every other protocol config.
func (r *Register) Validate() error {
	if r.SpreadInterval < 0 {
		return fmt.Errorf("dynreg: SpreadInterval %d must be non-negative (0 = default %d)", r.SpreadInterval, (&Register{}).spreadInterval())
	}
	if r.WriteWindow < 0 {
		return fmt.Errorf("dynreg: WriteWindow %d must be non-negative (0 = default %d)", r.WriteWindow, (&Register{}).writeWindow())
	}
	if r.WriteWindow > 0 && r.WriteWindow < r.spreadInterval() {
		return fmt.Errorf("dynreg: WriteWindow %d below the spread interval %d — no dissemination round fits the write", r.WriteWindow, r.spreadInterval())
	}
	if r.MaxTicks < 0 {
		return fmt.Errorf("dynreg: MaxTicks %d must be non-negative (0 = default %d)", r.MaxTicks, (&Register{}).maxTicks())
	}
	return nil
}

// regBehavior is one member's replica.
type regBehavior struct {
	proto  *Register
	active bool
	cur    copyMsg
	// sentSeq tracks, per neighbor, the freshest Seq already pushed.
	sentSeq map[graph.NodeID]uint64
	ticks   int
	started bool
}

// Factory returns the behaviour factory for worlds hosting the register.
// Every joining member asks its neighbors for state and serves reads only
// once some active neighbor answered (the join protocol).
func (r *Register) Factory() node.BehaviorFactory {
	return func(graph.NodeID) node.Behavior {
		return &regBehavior{proto: r, sentSeq: make(map[graph.NodeID]uint64)}
	}
}

func (b *regBehavior) Init(p *node.Proc) {
	for _, u := range p.Neighbors() {
		p.Send(u, tagStateReq, nil)
	}
	b.startTicking(p)
}

func (b *regBehavior) startTicking(p *node.Proc) {
	if b.started {
		return
	}
	b.started = true
	b.tick(p)
}

func (b *regBehavior) tick(p *node.Proc) {
	b.ticks++
	if b.ticks > b.proto.maxTicks() {
		return
	}
	if b.active {
		for _, u := range p.Neighbors() {
			// sentSeq stores cur.Seq+1 at push time, so 0 means "never
			// pushed to this neighbor" and the initial (seq 0) value is
			// pushed exactly once too.
			if b.sentSeq[u] <= b.cur.Seq {
				p.Send(u, tagUpdate, b.cur)
				b.sentSeq[u] = b.cur.Seq + 1
			}
		}
	}
	p.After(b.proto.spreadInterval(), func() { b.tick(p) })
}

func (b *regBehavior) adopt(m copyMsg) {
	if !b.active {
		b.cur = m
		b.active = true
		return
	}
	if m.Seq > b.cur.Seq {
		b.cur = m
	}
}

func (b *regBehavior) Receive(p *node.Proc, m node.Message) {
	switch m.Tag {
	case tagUpdate:
		b.adopt(m.Payload.(copyMsg))
	case tagStateReq:
		if b.active {
			p.Send(m.From, tagStateRep, b.cur)
		}
	case tagStateRep:
		b.adopt(m.Payload.(copyMsg))
	}
}

// Bootstrap activates every currently present member with the initial
// value (sequence 0). Call once, before any write, on the founding
// population; later joiners go through the join protocol instead.
func (r *Register) Bootstrap(w *node.World, initial float64) {
	for _, id := range w.Present() {
		b, ok := node.FindBehavior[*regBehavior](w.Proc(id).Behavior())
		if !ok {
			panic("dynreg: world was not built with this register's factory")
		}
		b.cur = copyMsg{Seq: 0, Val: initial}
		b.active = true
	}
}

// Write starts a write of val at the given member (the register is
// single-writer: always use the same member) and declares it complete
// after the write window. It panics if the writer is absent or inactive.
func (r *Register) Write(w *node.World, writer graph.NodeID, val float64) {
	p := w.Proc(writer)
	if p == nil {
		panic(fmt.Sprintf("dynreg: writer %d not present", writer))
	}
	b, ok := node.FindBehavior[*regBehavior](p.Behavior())
	if !ok {
		panic("dynreg: world was not built with this register's factory")
	}
	if !b.active {
		panic("dynreg: writer is not active")
	}
	r.writerSeq++
	seq := r.writerSeq
	b.cur = copyMsg{Seq: seq, Val: val}
	// Force re-push to every neighbor on the next tick.
	p.Mark(fmt.Sprintf("%s:%d:%g", markWriteStart, seq, val))
	p.After(r.writeWindow(), func() {
		p.Mark(fmt.Sprintf("%s:%d", markWriteEnd, seq))
	})
}

// Read serves a local read at the given member, recording it in the
// trace for the regularity checker. It reports whether the read was
// served (an inactive member refuses — its join has not completed).
func (r *Register) Read(w *node.World, reader graph.NodeID) (float64, bool) {
	p := w.Proc(reader)
	if p == nil {
		return 0, false
	}
	b, ok := node.FindBehavior[*regBehavior](p.Behavior())
	if !ok {
		panic("dynreg: world was not built with this register's factory")
	}
	if !b.active {
		p.Mark(markNotServed)
		return 0, false
	}
	p.Mark(fmt.Sprintf("%s:%d:%g", markRead, b.cur.Seq, b.cur.Val))
	return b.cur.Val, true
}

// Active reports whether the member's join protocol has completed.
func (r *Register) Active(w *node.World, id graph.NodeID) bool {
	p := w.Proc(id)
	if p == nil {
		return false
	}
	b, ok := node.FindBehavior[*regBehavior](p.Behavior())
	return ok && b.active
}

// Report is the regularity checker's judgment of a run.
type Report struct {
	// Reads is the number of served reads; NotServed counts refusals by
	// inactive members (not violations: the join had not completed).
	Reads, NotServed int
	// Stale counts reads that returned a write OLDER than the last
	// completed one — regularity violations.
	Stale int
	// Fabricated counts reads returning a sequence never written.
	Fabricated int
	// MaxLag is the largest (lastCompletedSeq - readSeq) observed.
	MaxLag uint64
}

// OK reports whether every served read was regular.
func (rep Report) OK() bool { return rep.Stale == 0 && rep.Fabricated == 0 }

// StaleRate returns the fraction of served reads that were stale.
func (rep Report) StaleRate() float64 {
	if rep.Reads == 0 {
		return 0
	}
	return float64(rep.Stale) / float64(rep.Reads)
}

// Check judges every recorded read against single-writer regular
// semantics using the ground-truth trace: a read must return the last
// write completed before it, or a newer (concurrent, still-running) one.
func Check(tr *core.Trace) Report {
	var rep Report
	lastCompleted := uint64(0)
	maxStarted := uint64(0)
	tr.Each(func(ev *core.TraceEvent) {
		if ev.Kind != core.TMark {
			return
		}
		switch {
		case strings.HasPrefix(ev.Tag, markWriteStart+":"):
			if seq, ok := parseSeq(ev.Tag, 1); ok && seq > maxStarted {
				maxStarted = seq
			}
		case strings.HasPrefix(ev.Tag, markWriteEnd+":"):
			if seq, ok := parseSeq(ev.Tag, 1); ok && seq > lastCompleted {
				lastCompleted = seq
			}
		case ev.Tag == markNotServed:
			rep.NotServed++
		case strings.HasPrefix(ev.Tag, markRead+":"):
			seq, ok := parseSeq(ev.Tag, 1)
			if !ok {
				return
			}
			rep.Reads++
			switch {
			case seq > maxStarted:
				rep.Fabricated++
			case seq < lastCompleted:
				rep.Stale++
				if lag := lastCompleted - seq; lag > rep.MaxLag {
					rep.MaxLag = lag
				}
			}
		}
	})
	return rep
}

func parseSeq(tag string, field int) (uint64, bool) {
	parts := strings.Split(tag, ":")
	if field >= len(parts) {
		return 0, false
	}
	seq, err := strconv.ParseUint(parts[field], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}
