package otq

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// ContinuousFlood is the standing-query counterpart of the One-Time
// Query (the companion problem in the OTQ literature): the querier
// re-floods every Epoch ticks and emits a fresh answer per epoch,
// tracking the aggregate of a system that keeps changing underneath it.
// Each epoch is an independent TTL-bounded flood (the members' flood
// logic is already multi-query), so the per-epoch guarantees are exactly
// FloodTTL's; what the continuous view adds — and what CheckContinuous
// measures — is how validity behaves as a rate over time and how far each
// answer lags the system it describes.
//
// A ContinuousFlood value drives a single world and a single standing
// query.
type ContinuousFlood struct {
	// TTL is each epoch's wave depth (the known diameter bound).
	TTL int
	// MaxLatency is the known per-hop latency bound.
	MaxLatency sim.Time
	// Epoch is the re-evaluation period; it must exceed each flood's
	// deadline (2*TTL*MaxLatency + 2). Default: deadline + 10.
	Epoch sim.Time
	// MaxEpochs bounds the standing query. Default 50.
	MaxEpochs int

	run *ContinuousRun
}

// EpochAnswer is one epoch's result.
type EpochAnswer struct {
	Epoch        int
	StartedAt    core.Time
	At           core.Time
	Contributors map[graph.NodeID]float64
}

// ContinuousRun collects the answer series.
type ContinuousRun struct {
	Querier graph.NodeID
	answers []EpochAnswer
}

// Name identifies the protocol.
func (*ContinuousFlood) Name() string { return "continuous-flood" }

// Factory returns the member behaviour (the shared multi-query flood
// logic).
func (*ContinuousFlood) Factory() node.BehaviorFactory { return floodFactory }

// epoch is the re-evaluation period: by default the flood deadline + 10.
func (cf *ContinuousFlood) epoch() sim.Time {
	return orDefault(cf.Epoch, roundTrip(cf.TTL, cf.MaxLatency)+10)
}

// Launch starts the standing query at the given present entity.
func (cf *ContinuousFlood) Launch(w *node.World, querier graph.NodeID) *ContinuousRun {
	if cf.TTL <= 0 || cf.MaxLatency <= 0 {
		panic("otq: ContinuousFlood needs positive TTL and MaxLatency")
	}
	if cf.epoch() < roundTrip(cf.TTL, cf.MaxLatency) {
		panic("otq: ContinuousFlood epoch shorter than its flood deadline")
	}
	p, b, _ := launchAt[*floodBehavior]("ContinuousFlood", cf.run != nil, w, querier)
	cf.run = &ContinuousRun{Querier: querier}
	b.asQuerier()
	cf.epochRound(p, b, 1)
	return cf.run
}

// epochRound floods epoch's wave (its query ID), answers at the wave's
// deadline whatever came home, and re-arms one Epoch later.
func (cf *ContinuousFlood) epochRound(p *node.Proc, b *floodBehavior, epoch int) {
	if !p.Alive() || epoch > orDefault(cf.MaxEpochs, 50) {
		return
	}
	started := int64(p.Now())
	p.After(b.flood(p, epoch, cf.TTL, cf.MaxLatency), func() {
		p.Mark(fmt.Sprintf("otq.epoch-answer:%d", epoch))
		cf.run.answers = append(cf.run.answers, EpochAnswer{
			Epoch:        epoch,
			StartedAt:    started,
			At:           int64(p.Now()),
			Contributors: copyContrib(b.acc[epoch]),
		})
	})
	p.After(cf.epoch(), func() { cf.epochRound(p, b, epoch+1) })
}

// ContinuousOutcome is CheckContinuous's judgment of a standing query.
type ContinuousOutcome struct {
	// Epochs is the number of answers emitted.
	Epochs int
	// ValidEpochs counts epochs whose answer satisfied the per-epoch OTQ
	// Validity (stable participants of [start, answer] covered, nothing
	// fabricated).
	ValidEpochs int
	// MeanAbsCountLag averages |answer count - true membership at answer
	// time| over epochs: how far each answer trails the living system.
	MeanAbsCountLag float64
}

// ValidRate returns ValidEpochs / Epochs (1 when no epochs ran).
func (o ContinuousOutcome) ValidRate() float64 {
	if o.Epochs == 0 {
		return 1
	}
	return float64(o.ValidEpochs) / float64(o.Epochs)
}

// CheckContinuous judges every epoch of a standing query against the
// recorded run.
func CheckContinuous(tr *core.Trace, r *ContinuousRun) ContinuousOutcome {
	var out ContinuousOutcome
	lagSum := 0.0
	for _, ans := range r.answers {
		out.Epochs++
		stable := tr.StableBetween(ans.StartedAt, ans.At)
		ever := map[graph.NodeID]bool{}
		for _, id := range tr.EverPresentBetween(ans.StartedAt, ans.At) {
			ever[id] = true
		}
		valid := true
		for _, id := range stable {
			if _, ok := ans.Contributors[id]; !ok {
				valid = false
			}
		}
		for id := range ans.Contributors {
			if !ever[id] {
				valid = false
			}
		}
		if valid {
			out.ValidEpochs++
		}
		truth := float64(len(tr.PresentAt(ans.At)))
		got := float64(len(ans.Contributors))
		if got > truth {
			lagSum += got - truth
		} else {
			lagSum += truth - got
		}
	}
	if out.Epochs > 0 {
		out.MeanAbsCountLag = lagSum / float64(out.Epochs)
	}
	return out
}
