package dynreg

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/node"
)

var _ node.Fingerprinter = copyMsg{}

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

// TestFingerprintMatchesFmtDigest: two copy messages digest alike exactly
// when the fmt digest printed them alike, -0 and +0 values included.
func TestFingerprintMatchesFmtDigest(t *testing.T) {
	var vals []copyMsg
	for pass := 0; pass < 2; pass++ {
		for seq := uint64(0); seq < 3; seq++ {
			for _, v := range []float64{0, math.Copysign(0, -1), 1, 2.5} {
				vals = append(vals, copyMsg{Seq: seq, Val: v})
			}
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
