package node

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzIdentityRecord checks the identity-record codec's safety properties
// on arbitrary wire bytes: DecodeIdentity never panics, accepted records
// stay within the documented bounds (counters fit an int, parole deadlines
// are nonnegative), and every accepted input re-encodes byte-identically —
// the canonical form is unique, so accept-then-reencode is the full round
// trip. A second spelling of the same record would let a hostile stable
// store smuggle divergent identity state past equality checks.
func FuzzIdentityRecord(f *testing.F) {
	f.Add(EncodeIdentity(IdentityRecord{}))
	f.Add(EncodeIdentity(fullIdentityRecord()))
	f.Add(EncodeIdentity(IdentityRecord{
		BSeqNext:    ^uint64(0),
		SendSeq:     map[graph.NodeID]uint64{0: 0, graph.MaxNodeID: ^uint64(0)},
		Quarantined: map[graph.NodeID]int64{9: 1<<63 - 1},
	}))
	one := EncodeIdentity(IdentityRecord{SendSeq: map[graph.NodeID]uint64{2: 9}})
	f.Add(putU64(one, 12, 1<<31))
	f.Add(putU64(one, 12, 1<<64-1))
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 8+5*4-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeIdentity(b)
		if err != nil {
			return
		}
		for peer, n := range rec.Strikes {
			if n < 0 {
				t.Fatalf("accepted negative strike count %d for %d", n, peer)
			}
		}
		for peer, n := range rec.Budgets {
			if n < 0 {
				t.Fatalf("accepted negative budget %d for %d", n, peer)
			}
		}
		for peer, d := range rec.Quarantined {
			if d < 0 {
				t.Fatalf("accepted negative parole deadline %d for %d", d, peer)
			}
		}
		if again := EncodeIdentity(rec); !bytes.Equal(again, b) {
			t.Fatalf("accepted non-canonical record: % x re-encodes to % x", b, again)
		}
	})
}
