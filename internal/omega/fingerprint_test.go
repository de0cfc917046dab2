package omega

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

var _ node.Fingerprinter = digestMsg{}

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

// TestFingerprintMatchesFmtDigest: two heartbeat digests digest alike
// exactly when the fmt digest printed them alike — whatever order their
// maps were filled in, and with nil and empty maps alike.
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	vals := []digestMsg{{}, {LastSeen: map[graph.NodeID]sim.Time{}}}
	// Every map over ids 1..3 with times in {0, 1}, built once ascending
	// and once descending.
	for code := 1; code < 27; code++ {
		for _, order := range [][]int{{1, 2, 3}, {3, 2, 1}} {
			m := map[graph.NodeID]sim.Time{}
			for _, id := range order {
				if d := code / []int{1, 3, 9}[id-1] % 3; d > 0 {
					m[graph.NodeID(id)] = sim.Time(d - 1)
				}
			}
			vals = append(vals, digestMsg{LastSeen: m})
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
