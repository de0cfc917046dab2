package tq

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// readCost runs reads on a warmed 64-member mesh under a count-only trace,
// each read to completion and its walks to their end, and returns one
// read's allocations, allocated bytes and the tq messages it sent.
func readCost(ttl int) (allocs, bytes, msgs float64) {
	c := NewClient(Config{Seed: 4, WalkTTL: ttl, Walkers: 2, Lease: 64})
	e := sim.New()
	w := node.NewWorld(e, topology.NewMesh(), c.Factory(), node.Config{MinLatency: 1, MaxLatency: 2, Seed: 4})
	w.Trace.SetCountOnly(true)
	for i := 1; i <= 64; i++ {
		w.Join(graph.NodeID(i))
	}
	c.Bootstrap(w, 0)
	reader := 0
	read := func() {
		reader = reader%64 + 1
		c.Read(w, graph.NodeID(reader))
		e.RunUntil(e.Now() + 2*sim.Time(ttl) + 8)
	}
	for i := 0; i < 200; i++ {
		read()
	}
	sent := func() int { return w.Trace.Messages(TagProbe).Sent + w.Trace.Messages(TagResp).Sent }
	before, runs := sent(), 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	total := ms.TotalAlloc
	allocs = testing.AllocsPerRun(100, func() { runs++; read() })
	runtime.ReadMemStats(&ms)
	return allocs, float64(ms.TotalAlloc-total) / float64(runs), float64(sent()-before) / float64(runs)
}

// maxWalkBytesPerMsg bounds what one walk message allocates: a frame that
// is not recycled costs its 45 to 200 wire bytes and its header.
const maxWalkBytesPerMsg = 8

// TestTQWalkAllocations pins what a walk hop allocates: nothing of its
// own. Probes and responses are encoded into frames drawn from the
// world's pool, recycled once their last copy has landed, and decoded
// into the client's scratch path, so once the pool has grown to the
// frames in flight a message allocates nothing. Reads with short and long
// walks pay the same per-read costs (the operation, its contact set, its
// marks and its expiry timer), so their difference is what the extra
// messages cost; it must stay under 1 allocation per 16 messages, where
// the per-message encoding and boxing of the first wire path cost over 3,
// and under maxWalkBytesPerMsg bytes per message.
func TestTQWalkAllocations(t *testing.T) {
	shortA, shortB, shortM := readCost(4)
	longA, longB, longM := readCost(16)
	if longM < shortM+200 {
		t.Fatalf("long walks sent %.0f messages a read, short ones %.0f: too few extra messages to measure", longM, shortM)
	}
	perMsg := (longA - shortA) / (longM - shortM)
	if perMsg > 1.0/16 {
		t.Errorf("%.3f allocs per walk message (%.0f allocs for %.0f messages a read, %.0f for %.0f), want <= 1/16: only pool growth",
			perMsg, longA, longM, shortA, shortM)
	}
	bytesPerMsg := (longB - shortB) / (longM - shortM)
	if bytesPerMsg > maxWalkBytesPerMsg {
		t.Errorf("%.1f bytes per walk message (%.0f bytes for %.0f messages a read, %.0f for %.0f), want <= %d",
			bytesPerMsg, longB, longM, shortB, shortM, maxWalkBytesPerMsg)
	}
}

// BenchmarkTQRegister times four ticks of a 256-member timed-quorum
// register over pex tail views (tq-register's shape at a quarter of its
// size, count-only trace) under rejoining churn: before each round four
// members leave and four that left five rounds ago rejoin, then member 1,
// which never leaves, writes once and four present members read, one a
// tick. Walk hops, their frames and the pex exchanges under them all run
// in it, so the allocation gate watches them.
func BenchmarkTQRegister(b *testing.B) {
	const n, batch, away = 256, 4, 5
	q := int(math.Ceil(1.6 * math.Sqrt(n)))
	c := NewClient(Config{QuorumCoeff: 1.6, WalkTTL: 4, Walkers: q, MaxLease: 64, Seed: 1})
	e := sim.New()
	w := node.NewWorld(e, topology.NewManual(), c.Factory(), node.Config{
		Seed: 1, MinLatency: 1, MaxLatency: 2,
		Pex: pex.Config{Enabled: true, ViewSize: 8, Policy: pex.PolicyTail, SampleEvery: 1 << 20},
	})
	w.Trace.SetCountOnly(true)
	for i := 1; i <= n; i++ {
		w.Join(graph.NodeID(i))
	}
	w.PexSeedViews(topology.BuildRing(n))
	e.RunUntil(40)
	c.Bootstrap(w, 0)
	c.Attach(w)
	k, reader, val := 0, 0, 0.0
	round := func() {
		for i := 0; i < batch; i++ {
			k++
			if id := graph.NodeID(2 + k%(n-1)); w.Proc(id) != nil {
				w.Leave(id)
			}
			if back := graph.NodeID(2 + (k+n-1-away*batch)%(n-1)); w.Proc(back) == nil {
				w.Join(back)
			}
		}
		val++
		c.Write(w, 1, val)
		for i := 0; i < 4; i++ {
			for {
				reader = reader%n + 1
				if w.Proc(graph.NodeID(reader)) != nil {
					break
				}
			}
			c.Read(w, graph.NodeID(reader))
			e.RunUntil(e.Now() + 1)
		}
	}
	for i := 0; i < 2*n/batch; i++ { // every churning member has left and rejoined twice
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
