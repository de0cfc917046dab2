package tq

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// EncodeProbe renders a probe in its canonical wire form: fixed-width
// little-endian fields, then the path as uint64 entries. It panics on
// paths over MaxWirePath — honest walks are TTL-bounded far below it.
func EncodeProbe(p Probe) []byte {
	b := make([]byte, p.wireSize())
	p.encodeTo(b)
	return b
}

// DecodeProbe parses a wire probe, rejecting version/kind/length
// mismatches. It never panics on adversarial input (FuzzTQWire holds it
// to that), and EncodeProbe(DecodeProbe(b)) == b for every accepted b.
func DecodeProbe(b []byte) (Probe, error) { return decodeProbe(b, nil) }

// EncodeResp renders a response in its canonical wire form. It panics on
// paths over MaxWirePath, like EncodeProbe.
func EncodeResp(r Resp) []byte {
	b := make([]byte, r.wireSize())
	r.encodeTo(b)
	return b
}

// DecodeResp parses a wire response with the same guarantees as
// DecodeProbe: no panics on adversarial input, canonical round-trip for
// every accepted input.
func DecodeResp(b []byte) (Resp, error) { return decodeResp(b, nil) }

func TestProbeRoundTrip(t *testing.T) {
	probes := []Probe{
		{Op: 1, Kind: KindRead, Attempt: 1, TTL: 8, Path: []graph.NodeID{3}},
		{Op: 7, Kind: KindWrite, Attempt: 3, TTL: 1, Tag: 42, Val: -1.5, Deadline: 999, Path: []graph.NodeID{1, 2, 3}},
		{Op: 1 << 60, Kind: KindWrite, Attempt: 255, TTL: 255, Tag: 1<<64 - 1, Val: math.Inf(1), Deadline: -1, Path: nil},
		{Op: 2, Kind: KindRead, TTL: 1, Path: []graph.NodeID{0, graph.MaxNodeID}},
	}
	for _, p := range probes {
		b := EncodeProbe(p)
		got, err := DecodeProbe(b)
		if err != nil {
			t.Fatalf("decode(%+v): %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: got %+v, want %+v", got, p)
		}
		if again := EncodeProbe(got); !bytes.Equal(again, b) {
			t.Fatalf("encoding is not canonical for %+v", p)
		}
	}
}

func TestRespRoundTrip(t *testing.T) {
	resps := []Resp{
		{Op: 1, Kind: KindRead, Attempt: 1, Has: true, Replica: 9, Tag: 3, Val: 2.5, Deadline: 77, Path: []graph.NodeID{1}},
		{Op: 2, Kind: KindWrite, Attempt: 2, Has: false, Replica: graph.MaxNodeID, Path: []graph.NodeID{5, 6, 7, 8}},
	}
	for _, r := range resps {
		b := EncodeResp(r)
		got, err := DecodeResp(b)
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
		if again := EncodeResp(got); !bytes.Equal(again, b) {
			t.Fatalf("encoding is not canonical for %+v", r)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	okProbe := EncodeProbe(Probe{Op: 1, Kind: KindRead, Path: []graph.NodeID{1, 2}})
	okResp := EncodeResp(Resp{Op: 1, Kind: KindWrite, Has: true, Path: []graph.NodeID{1}})

	cases := []struct {
		name string
		b    []byte
		resp bool
	}{
		{"probe empty", nil, false},
		{"probe truncated header", okProbe[:probeWireHeader-1], false},
		{"probe bad version", append([]byte{99}, okProbe[1:]...), false},
		{"probe bad kind", mutate(okProbe, 1, 7), false},
		{"probe short path", okProbe[:len(okProbe)-8], false},
		{"probe trailing bytes", append(append([]byte{}, okProbe...), 0), false},
		{"probe path over cap", mutate(okProbe, 36, 255), false},
		{"resp empty", nil, true},
		{"resp bad version", mutate(okResp, 0, 2), true},
		{"resp bad kind", mutate(okResp, 1, 9), true},
		{"resp non-canonical has", mutate(okResp, 3, 2), true},
		{"resp path over cap", mutate(okResp, 44, 200), true},
		// IDs outside [0, MaxNodeID] are refused, never truncated.
		{"probe path ID 2^31", put64(okProbe, probeWireHeader+8, 1<<31), false},
		{"probe path ID 2^64-1", put64(okProbe, probeWireHeader, 1<<64-1), false},
		{"resp replica 2^31", put64(okResp, 12, 1<<31), true},
		{"resp replica 2^64-1", put64(okResp, 12, 1<<64-1), true},
		{"resp path ID 2^31", put64(okResp, respWireHeader, 1<<31), true},
		{"resp path ID 2^64-1", put64(okResp, respWireHeader, 1<<64-1), true},
		{"resp length mismatch", okResp[:len(okResp)-1], true},
	}
	for _, tc := range cases {
		var err error
		if tc.resp {
			_, err = DecodeResp(tc.b)
		} else {
			_, err = DecodeProbe(tc.b)
		}
		if err == nil {
			t.Errorf("%s: decode accepted", tc.name)
		}
	}
}

func mutate(b []byte, i int, v byte) []byte {
	c := append([]byte{}, b...)
	c[i] = v
	return c
}

func put64(b []byte, i int, v uint64) []byte {
	c := append([]byte{}, b...)
	binary.LittleEndian.PutUint64(c[i:], v)
	return c
}

func TestEncodePanicsOnOversizedPath(t *testing.T) {
	long := make([]graph.NodeID, MaxWirePath+1)
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeProbe accepted a path over the wire cap")
		}
	}()
	EncodeProbe(Probe{Kind: KindRead, Path: long})
}

// FuzzTQWire holds both decoders to the codec contract: never panic on
// adversarial bytes, and re-encode every accepted input byte-identically.
// The replicas' scratch decode, run over a dirty scratch path, must agree
// with the exported decoders on every input, accepted or not.
func FuzzTQWire(f *testing.F) {
	f.Add(EncodeProbe(Probe{Op: 3, Kind: KindWrite, Attempt: 1, TTL: 8, Tag: 5, Val: 1.5, Deadline: 100, Path: []graph.NodeID{1, 2}}))
	f.Add(EncodeResp(Resp{Op: 3, Kind: KindRead, Attempt: 2, Has: true, Replica: 7, Tag: 5, Val: 2.5, Deadline: 100, Path: []graph.NodeID{4}}))
	f.Add(EncodeProbe(Probe{Op: 4, Kind: KindRead, TTL: 2, Val: math.NaN()}))
	f.Add(EncodeResp(Resp{Op: 5, Kind: KindWrite, Path: make([]graph.NodeID, 12)}))
	f.Add([]byte{probeWireVersion})
	f.Add([]byte{})
	okProbe := EncodeProbe(Probe{Op: 6, Kind: KindRead, TTL: 3, Path: []graph.NodeID{1, 2}})
	okResp := EncodeResp(Resp{Op: 6, Kind: KindWrite, Replica: 3, Path: []graph.NodeID{1}})
	f.Add(put64(okProbe, probeWireHeader+8, 1<<31))
	f.Add(put64(okResp, 12, 1<<64-1))
	f.Add(put64(okResp, respWireHeader, 1<<31))
	dirty := func() []graph.NodeID {
		s := make([]graph.NodeID, 3, 8)
		for i := range s {
			s[i] = graph.NodeID(1000 + i)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeProbe(b)
		if err == nil {
			if again := EncodeProbe(p); !bytes.Equal(again, b) {
				t.Fatalf("probe round trip not canonical: %x -> %x", b, again)
			}
		}
		// Val is compared by its bits (a NaN equals itself), the rest deeply.
		sp, serr := decodeProbe(b, dirty())
		sameVal := math.Float64bits(sp.Val) == math.Float64bits(p.Val)
		sp.Val, p.Val = 0, 0
		if (serr == nil) != (err == nil) || !sameVal || !reflect.DeepEqual(sp, p) {
			t.Fatalf("scratch probe decode of %x: %+v, %v; exported: %+v, %v", b, sp, serr, p, err)
		}
		r, err := DecodeResp(b)
		if err == nil {
			if again := EncodeResp(r); !bytes.Equal(again, b) {
				t.Fatalf("resp round trip not canonical: %x -> %x", b, again)
			}
		}
		sr, serr := decodeResp(b, dirty())
		sameVal = math.Float64bits(sr.Val) == math.Float64bits(r.Val)
		sr.Val, r.Val = 0, 0
		if (serr == nil) != (err == nil) || !sameVal || !reflect.DeepEqual(sr, r) {
			t.Fatalf("scratch resp decode of %x: %+v, %v; exported: %+v, %v", b, sr, serr, r, err)
		}
	})
}
