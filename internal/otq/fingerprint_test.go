package otq

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
)

var (
	_ node.Fingerprinter = echoSetMsg{}
	_ node.Fingerprinter = treeEchoMsg{}
	_ node.Fingerprinter = reportMsg{}
	_ node.Fingerprinter = queryMsg{}
	_ node.Fingerprinter = gossipMsg{}
)

// fnv1a and refFingerprint are the fmt digest node's fingerprint used
// before payloads digested themselves, kept verbatim as the reference.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func refFingerprint(payload any) uint64 {
	payload = refPayload(payload)
	return fnv1a(fmt.Sprintf("%T|%v", payload, payload))
}

// The map-typed payloads the fmt digest rendered, kept as the reference
// shape: fmt printed a map's entries sorted by key, so equal sets printed
// alike whatever their order, and a nil map like an empty one.
type (
	refEchoSet  struct{ Contrib map[graph.NodeID]float64 }
	refTreeEcho struct{ Contrib map[graph.NodeID]float64 }
	refReport   struct {
		QID     int
		Contrib map[graph.NodeID]float64
	}
)

func refMap(s []contrib) map[graph.NodeID]float64 {
	if s == nil {
		return nil
	}
	m := make(map[graph.NodeID]float64, len(s))
	for _, c := range s {
		m[c.ID] = c.V
	}
	return m
}

// refPayload renders a contribution payload through its map-typed
// reference; other payloads are their own reference.
func refPayload(payload any) any {
	switch p := payload.(type) {
	case echoSetMsg:
		return refEchoSet{refMap(p.set())}
	case treeEchoMsg:
		return refTreeEcho{refMap(p.Contrib)}
	case reportMsg:
		return refReport{p.QID, refMap(p.Contrib)}
	}
	return payload
}

// echoSetOf ships s as an echo set; a nil s ships a nil pointer.
func echoSetOf(s []contrib) echoSetMsg {
	if s == nil {
		return echoSetMsg{}
	}
	return echoSetMsg{Contrib: &s}
}

var fpFloats = []float64{0, math.Copysign(0, -1), 1, 2.5}

// randContrib draws a contribution set (nil, empty, or up to four small
// entries) and builds it twice in independently shuffled orders, so equal
// sets with different histories meet in the pool.
func randContrib(r *rng.Rand) (a, b []contrib) {
	if r.Intn(4) == 0 {
		return nil, []contrib{}
	}
	ids := r.Perm(5)[:r.Intn(5)]
	vals := make([]float64, len(ids))
	for i := range vals {
		vals[i] = fpFloats[r.Intn(len(fpFloats))]
	}
	build := func() []contrib {
		s := make([]contrib, 0, len(ids))
		for _, i := range r.Perm(len(ids)) {
			s = append(s, contrib{graph.NodeID(ids[i]), vals[i]})
		}
		return s
	}
	return build(), build()
}

// TestFingerprintMatchesFmtDigest holds the protocols' payload digests
// to the equality relation of the fmt digest they replaced: every pair of
// seeded random payloads, their twins built in other insertion orders,
// and their Tamper outputs digest alike exactly when fmt printed their
// map-typed references alike. The pool crosses nil with empty sets, +0
// with -0, and the echo-set and tree-echo types over equal sets.
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	r := rng.New(21)
	var vals []any
	for i := 0; i < 150; i++ {
		a, b := randContrib(r)
		qid := r.Intn(2)
		var pair [2]node.Tamperable
		switch r.Intn(5) {
		case 0:
			pair = [2]node.Tamperable{echoSetOf(a), echoSetOf(b)}
		case 1:
			pair = [2]node.Tamperable{treeEchoMsg{Contrib: a}, echoSetOf(b)}
		case 2:
			pair = [2]node.Tamperable{reportMsg{QID: qid, Contrib: a}, reportMsg{QID: qid, Contrib: b}}
		case 3:
			q := queryMsg{QID: qid, TTL: r.Intn(3)}
			pair = [2]node.Tamperable{q, queryMsg{QID: r.Intn(2), TTL: q.TTL}}
		default:
			g := gossipMsg{S: fpFloats[r.Intn(len(fpFloats))], W: fpFloats[r.Intn(len(fpFloats))]}
			pair = [2]node.Tamperable{g, gossipMsg{S: g.S, W: fpFloats[r.Intn(len(fpFloats))]}}
		}
		for _, v := range pair {
			vals = append(vals, v, v.Tamper(r))
		}
	}
	got := make([]uint64, len(vals))
	ref := make([]uint64, len(vals))
	for i, v := range vals {
		got[i], ref[i] = v.(node.Fingerprinter).Fingerprint(), refFingerprint(v)
	}
	equal, pairs := 0, 0
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			pairs++
			if ref[i] == ref[j] {
				equal++
			}
			if (got[i] == got[j]) != (ref[i] == ref[j]) {
				vi, vj := refPayload(vals[i]), refPayload(vals[j])
				t.Fatalf("%T %v vs %T %v: fingerprints equal %v, fmt digests equal %v",
					vi, vi, vj, vj, got[i] == got[j], ref[i] == ref[j])
			}
		}
	}
	if equal == 0 || equal == pairs {
		t.Fatalf("%d of %d pairs equal: the pool does not exercise both sides of the relation", equal, pairs)
	}
}

// TestSketchMsgKeepsIdentityDigest: sketchMsg stays on the fmt fallback,
// which digests its *sketch.FM by pointer. A content digest would pass a
// tampered clone whose phantom items all landed on set bits as honest.
func TestSketchMsgKeepsIdentityDigest(t *testing.T) {
	if _, ok := any(sketchMsg{}).(node.Fingerprinter); ok {
		t.Fatal("sketchMsg implements node.Fingerprinter; its digest must stay the pointer identity")
	}
}

func echoSet12() echoSetMsg {
	s := make([]contrib, 12)
	for i := range s {
		s[i] = contrib{graph.NodeID(i + 1), float64(i+1) / 4}
	}
	return echoSetOf(s)
}

// TestFingerprintAllocs: digesting a 12-entry echo set allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	var fp node.Fingerprinter = echoSet12()
	if n := testing.AllocsPerRun(100, func() { fpSink = fp.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint of a 12-entry echoSetMsg: %.0f allocs, want 0", n)
	}
}

// fpSink keeps the benchmarked digests live.
var fpSink uint64

func BenchmarkFingerprintEchoSet12(b *testing.B) {
	var fp node.Fingerprinter = echoSet12()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = fp.Fingerprint()
	}
}
