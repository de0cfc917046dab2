package node

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/pex"
	"repro/internal/rng"
)

var (
	_ Fingerprinter = ackMsg{}
	_ Fingerprinter = reconfigPrepare{}
	_ Fingerprinter = reconfigAck{}
	_ Fingerprinter = reconfigCommit{}
	_ Fingerprinter = PullRequest{}
	_ Fingerprinter = PullResponse{}
)

// refFingerprint is the fmt digest fingerprint replaced, kept verbatim:
// the reference whose equality relation the typed digests must match.
func refFingerprint(payload any) uint64 {
	return fnv1a(fmt.Sprintf("%T|%v", payload, payload))
}

// assertSameSplits checks that fp and refFingerprint split vals alike:
// for every pair, the two digests agree exactly when the references do.
// The pool must hold both equal and unequal pairs, or the test is vacuous.
func assertSameSplits(t *testing.T, vals []any, fp func(any) uint64) {
	t.Helper()
	got := make([]uint64, len(vals))
	ref := make([]uint64, len(vals))
	for i, v := range vals {
		got[i], ref[i] = fp(v), refFingerprint(v)
	}
	equal, pairs := 0, 0
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			pairs++
			if ref[i] == ref[j] {
				equal++
			}
			if (got[i] == got[j]) != (ref[i] == ref[j]) {
				t.Fatalf("%T %v vs %T %v: fingerprints equal %v, fmt digests equal %v",
					vals[i], vals[i], vals[j], vals[j], got[i] == got[j], ref[i] == ref[j])
			}
		}
	}
	if equal == 0 || equal == pairs {
		t.Fatalf("%d of %d pairs equal: the pool does not exercise both sides of the relation", equal, pairs)
	}
}

// fpFloats are the float values pools draw from: few enough to repeat,
// with both zeros.
var fpFloats = []float64{0, math.Copysign(0, -1), 1, 2.5}

// randBytes is nil, empty or a short byte string over {0, 1}; lengths
// straddle the eight-byte words foldBytes reads.
func randBytes(r *rng.Rand) []byte {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, r.Intn(18))
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func randIDs(r *rng.Rand) []graph.NodeID {
	if r.Intn(3) == 0 {
		return nil
	}
	ids := make([]graph.NodeID, r.Intn(3))
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(2))
	}
	return ids
}

func randReceipt(r *rng.Rand) Receipt {
	return Receipt{Sender: graph.NodeID(r.Intn(2)), BSeq: uint64(r.Intn(2)), FP: uint64(r.Intn(2)), Sig: uint64(r.Intn(2))}
}

func randReceipts(r *rng.Rand) []Receipt {
	if r.Intn(3) == 0 {
		return nil
	}
	rs := make([]Receipt, r.Intn(3))
	for i := range rs {
		rs[i] = randReceipt(r)
	}
	return rs
}

// randNodePayload draws one payload of a type node's fingerprint covers.
func randNodePayload(r *rng.Rand) any {
	small := func() uint64 { return uint64(r.Intn(3)) }
	switch r.Intn(12) {
	case 0:
		return nil
	case 1:
		return fpFloats[r.Intn(len(fpFloats))]
	case 2:
		return randBytes(r)
	case 3:
		return randReceipts(r)
	case 4:
		return [2]Receipt{randReceipt(r), randReceipt(r)}
	case 5:
		return ackMsg{Seq: small()}
	case 6:
		return reconfigPrepare{Epoch: small(), Wire: randBytes(r)}
	case 7:
		return reconfigAck{Epoch: small(), Acker: graph.NodeID(small())}
	case 8:
		return reconfigCommit{Epoch: small()}
	case 9:
		var d []DigestEntry
		if n := r.Intn(3); n > 0 || r.Intn(2) == 0 {
			d = make([]DigestEntry, n)
			for i := range d {
				d[i] = DigestEntry{Sender: graph.NodeID(small()), BSeq: small(), FP: small()}
			}
		}
		return PullRequest{Origin: graph.NodeID(small()), TTL: r.Intn(3) - 1, Path: randIDs(r), Digest: d}
	case 10:
		return PullResponse{Path: randIDs(r), Receipts: randReceipts(r)}
	default:
		return pex.Exchange{Pull: r.Intn(2) == 0, Wire: randBytes(r)}
	}
}

// TestFingerprintMatchesFmtDigest holds node's typed digests to the
// equality relation of the fmt digest they replaced, over seeded random
// payloads of every covered type plus the pairs where a typed digest is
// most likely to slip: nil against empty, +0 against -0, a receipt slice
// against a receipt pair, and equal fields under two types.
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	r := rng.New(21)
	vals := make([]any, 0, 600)
	for i := 0; i < 500; i++ {
		vals = append(vals, randNodePayload(r))
	}
	a, b := Receipt{Sender: 1, BSeq: 2, FP: 3, Sig: 4}, Receipt{Sender: 5, BSeq: 2, FP: 6, Sig: 7}
	vals = append(vals,
		[]Receipt(nil), []Receipt{}, []byte(nil), []byte{},
		0.0, math.Copysign(0, -1),
		[]Receipt{a, b}, [2]Receipt{a, b},
		ackMsg{Seq: 7}, reconfigCommit{Epoch: 7},
		reconfigPrepare{Epoch: 1}, reconfigPrepare{Epoch: 1, Wire: []byte{}},
		pex.Exchange{Wire: []byte{1}}, reconfigPrepare{Epoch: 0, Wire: []byte{1}},
		PullRequest{Path: []graph.NodeID{}, Digest: []DigestEntry{}}, PullRequest{},
		PullResponse{Receipts: []Receipt{}}, PullResponse{},
	)
	assertSameSplits(t, vals, fingerprint)
}

// TestFingerprintAllocs: the digest of an 8-receipt pull response, the
// largest audit payload on the hot path, allocates nothing.
func TestFingerprintAllocs(t *testing.T) {
	rs := make([]Receipt, 8)
	for i := range rs {
		rs[i] = Receipt{Sender: graph.NodeID(i), BSeq: uint64(i), FP: uint64(i) * 31, Sig: uint64(i) * 17}
	}
	var payload any = PullResponse{Path: []graph.NodeID{1, 2, 3}, Receipts: rs}
	if n := testing.AllocsPerRun(100, func() { fingerprint(payload) }); n != 0 {
		t.Fatalf("fingerprint(PullResponse with 8 receipts): %.0f allocs, want 0", n)
	}
}
