package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/pex"
	"repro/internal/sim"
)

const (
	// directBatches timed batches per direct figure; the median is kept.
	directBatches = 5
	// directOps is the least number of calls one batch makes.
	directOps = 1 << 16
)

// nsPer times batches of f, each making ops calls of the unit under
// test, and returns the median nanoseconds per call.
func nsPer(ops int, f func()) float64 {
	xs := make([]float64, directBatches)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// directTimings calls single public functions of pex, core and sim on
// inputs recorded from the traced run: the view records its world ended
// with (none when pex was off — those figures stay 0) and the head of
// its event stream.
func directTimings(p *probe, m map[string]float64) {
	var batches [][]pex.Record
	recs := 0
	for _, id := range p.world.Present() {
		// One exchange ships at most the default fanout of 4 records.
		if view := p.world.PexView(id); len(view) > 0 {
			batches = append(batches, view[:min(4, len(view))])
			recs += len(batches[len(batches)-1])
		}
		if recs >= 4096 {
			break
		}
	}
	if recs > 0 {
		rounds := directOps/recs + 1
		wires := make([][]byte, len(batches))
		m["pex.encode_ns_per_rec"] = nsPer(rounds*recs, func() {
			for r := 0; r < rounds; r++ {
				for i, b := range batches {
					wires[i] = pex.EncodeRecords(b)
				}
			}
		})
		m["pex.decode_ns_per_rec"] = nsPer(rounds*recs, func() {
			for r := 0; r < rounds; r++ {
				for _, wire := range wires {
					if _, err := pex.DecodeRecords(wire); err != nil {
						panic("bench: decoding an encoded view: " + err.Error())
					}
				}
			}
		})
		var sig uint64
		m["pex.sign_ns"] = nsPer(rounds*recs, func() {
			for r := 0; r < rounds; r++ {
				for _, b := range batches {
					for _, rec := range b {
						sig += pex.SignRecord(0, rec.ID, rec.Epoch).Sig
					}
				}
			}
		})
		ok := 0
		m["pex.verify_ns"] = nsPer(rounds*recs, func() {
			for r := 0; r < rounds; r++ {
				for _, b := range batches {
					for _, rec := range b {
						if pex.VerifyRecord(0, rec) {
							ok++
						}
					}
				}
			}
		})
		if sig == 0 || ok == 0 {
			panic("bench: view records do not verify under the world's key seed")
		}
	}

	if n := len(p.events); n > 0 {
		rounds := directOps/n + 1
		replay := func(countOnly bool) func() {
			return func() {
				for r := 0; r < rounds; r++ {
					tr := &core.Trace{}
					tr.SetCountOnly(countOnly)
					for _, ev := range p.events {
						tr.Record(ev)
					}
				}
			}
		}
		m["core.record_full_ns"] = nsPer(rounds*n, replay(false))
		m["core.record_countonly_ns"] = nsPer(rounds*n, replay(true))
	}

	m["sim.schedule_fire_ns"] = nsPer(directOps, func() {
		e := sim.New()
		for i := 0; i < directOps; i++ {
			e.AfterCall(sim.Time(1+i%64), func(any) {}, nil)
		}
		e.RunUntil(65)
	})
}
