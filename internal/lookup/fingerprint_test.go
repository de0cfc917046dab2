package lookup

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

var _ node.Fingerprinter = lookupMsg{}

// refFingerprint is the fmt digest node's fingerprint used before
// payloads digested themselves, kept verbatim as the reference.
func refFingerprint(payload any) uint64 {
	s := fmt.Sprintf("%T|%v", payload, payload)
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TestFingerprintMatchesFmtDigest: two lookup messages digest alike
// exactly when the fmt digest printed them alike.
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	var vals []lookupMsg
	for pass := 0; pass < 2; pass++ {
		for bits := 0; bits < 16; bits++ {
			vals = append(vals, lookupMsg{Key: uint64(bits & 1), Hops: bits >> 1 & 1, Budget: bits >> 2 & 1, Querier: graph.NodeID(bits >> 3)})
		}
	}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			if (a.Fingerprint() == b.Fingerprint()) != (refFingerprint(a) == refFingerprint(b)) {
				t.Fatalf("%v vs %v: fingerprint and fmt digest disagree on equality", a, b)
			}
		}
	}
}
