package exp

import (
	"testing"

	"repro/internal/churn"
	"repro/internal/otq"
	"repro/internal/topology"
)

// BenchmarkJudgedEchoWave is one judged world end to end: a 64-entity
// random-k(3) overlay under churn running the echo wave to a 500-tick
// horizon, recorded with a full trace, then judged by a post-hoc replay
// of the OTQ judge and class inference. It puts the judged path — the event log,
// the protocol's ticks and pushes, and both judges — under the
// allocation gate.
func BenchmarkJudgedEchoWave(b *testing.B) {
	benchJudged(b, func() otq.Protocol {
		return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 5000}
	})
}

// BenchmarkJudgedRepeatedFlood is the same judged world running the
// repeated TTL flood, as judged-batch runs it: every round relays one
// report per member back toward the querier, which puts the flood's
// contribution bundles under the allocation gate.
func BenchmarkJudgedRepeatedFlood(b *testing.B) {
	benchJudged(b, func() otq.Protocol {
		return &otq.RepeatedFlood{TTL: 8, MaxLatency: 2, MaxRounds: 10, QuietRounds: 2}
	})
}

func benchJudged(b *testing.B, proto func() otq.Protocol) {
	sc := Scenario{
		Seed:    1,
		Overlay: func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, 3) },
		Churn: churn.Config{
			InitialPopulation: 64,
			Immortal:          true,
			ArrivalRate:       64.0 / 2000,
			Session:           churn.ExpSessions(80),
		},
		Protocol:   proto,
		MinLatency: 1, MaxLatency: 2,
		QueryAt: 125,
		Horizon: 500,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := Execute(sc); res.Trace.Len() == 0 {
			b.Fatal("the judged world recorded nothing")
		}
	}
}
