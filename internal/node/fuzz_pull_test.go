package node

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Pull digest wire form: a 12-byte header (origin, ttl, entry count)
// followed by 24 bytes per entry.
const (
	digestHeaderWire = 12
	digestEntryWire  = 24
)

// EncodePullDigest renders a digest in its canonical wire form. The TTL
// must lie in [0, maxPullTTL] and the entry count must fit 16 bits.
func EncodePullDigest(origin graph.NodeID, ttl int, entries []DigestEntry) []byte {
	if ttl < 0 || ttl > maxPullTTL {
		panic(fmt.Sprintf("node: pull digest TTL %d outside [0, %d]", ttl, maxPullTTL))
	}
	if len(entries) > 0xffff {
		panic(fmt.Sprintf("node: pull digest with %d entries", len(entries)))
	}
	out := make([]byte, digestHeaderWire+digestEntryWire*len(entries))
	binary.LittleEndian.PutUint64(out[0:], uint64(origin))
	binary.LittleEndian.PutUint16(out[8:], uint16(ttl))
	binary.LittleEndian.PutUint16(out[10:], uint16(len(entries)))
	for i, e := range entries {
		off := digestHeaderWire + digestEntryWire*i
		binary.LittleEndian.PutUint64(out[off:], uint64(e.Sender))
		binary.LittleEndian.PutUint64(out[off+8:], e.BSeq)
		binary.LittleEndian.PutUint64(out[off+16:], e.FP)
	}
	return out
}

// DecodePullDigest parses the canonical wire form, rejecting truncated
// headers, entry counts that disagree with the length, and out-of-range
// TTLs.
func DecodePullDigest(b []byte) (graph.NodeID, int, []DigestEntry, error) {
	if len(b) < digestHeaderWire {
		return 0, 0, nil, fmt.Errorf("node: pull digest header is %d bytes, got %d", digestHeaderWire, len(b))
	}
	origin := graph.NodeID(binary.LittleEndian.Uint64(b[0:]))
	ttl := int(binary.LittleEndian.Uint16(b[8:]))
	if ttl > maxPullTTL {
		return 0, 0, nil, fmt.Errorf("node: pull digest TTL %d outside [0, %d]", ttl, maxPullTTL)
	}
	n := int(binary.LittleEndian.Uint16(b[10:]))
	if len(b) != digestHeaderWire+digestEntryWire*n {
		return 0, 0, nil, fmt.Errorf("node: pull digest claims %d entries in %d bytes", n, len(b))
	}
	entries := make([]DigestEntry, n)
	for i := range entries {
		off := digestHeaderWire + digestEntryWire*i
		entries[i] = DigestEntry{
			Sender: graph.NodeID(binary.LittleEndian.Uint64(b[off:])),
			BSeq:   binary.LittleEndian.Uint64(b[off+8:]),
			FP:     binary.LittleEndian.Uint64(b[off+16:]),
		}
	}
	return origin, ttl, entries, nil
}

// FuzzPullDigest checks the pull-digest codec's two safety properties on
// arbitrary wire bytes: DecodePullDigest never panics, and every digest
// it accepts re-encodes to the byte-identical input (the canonical form
// is unique, so accept-then-reencode is the full round trip). A codec
// that accepted a second spelling of the same digest would let an
// adversary craft digests that hash differently but decode identically.
func FuzzPullDigest(f *testing.F) {
	f.Add(EncodePullDigest(1, 0, nil))
	f.Add(EncodePullDigest(7, 2, []DigestEntry{{Sender: 3, BSeq: 42, FP: 0xbeef}}))
	f.Add(EncodePullDigest(graph.NodeID(^uint64(0)>>1), maxPullTTL, []DigestEntry{
		{Sender: 0, BSeq: 0, FP: 0},
		{Sender: 5, BSeq: ^uint64(0), FP: ^uint64(0)},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, digestHeaderWire-1))
	f.Add(make([]byte, digestHeaderWire+digestEntryWire-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		origin, ttl, entries, err := DecodePullDigest(b)
		if err != nil {
			return
		}
		if ttl < 0 || ttl > maxPullTTL {
			t.Fatalf("accepted out-of-range TTL %d", ttl)
		}
		if again := EncodePullDigest(origin, ttl, entries); !bytes.Equal(again, b) {
			t.Fatalf("accepted non-canonical digest: % x re-encodes to % x", b, again)
		}
	})
}
