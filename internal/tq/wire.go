package tq

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Probe/response kinds. A probe's kind decides what the contact does at
// each replica it visits: a write probe pushes (tag, val, deadline) and
// the replica adopts-if-newer; a read probe only snapshots the replica's
// current value.
const (
	KindRead  = byte(0)
	KindWrite = byte(1)
)

// Wire-format limits. Honest walk paths hold at most WalkTTL+1 entries,
// far under MaxWirePath; the codec rejects anything past it so an
// adversarial payload cannot make receivers allocate unboundedly.
const (
	MaxWirePath = 64

	probeWireVersion = 1
	respWireVersion  = 1

	// version + kind + attempt + ttl + op + tag + val + deadline + pathlen
	probeWireHeader = 4 + 8 + 8 + 8 + 8 + 1
	// version + kind + attempt + has + op + replica + tag + val + deadline + pathlen
	respWireHeader = 4 + 8 + 8 + 8 + 8 + 8 + 1
)

// Probe is one hop of a quorum walk: operation identity (Op, Kind,
// Attempt), remaining budget (TTL), the value being pushed for writes
// (Tag, Val, Deadline — zero for reads), and the path walked so far.
// Path[0] is the initiator; responses unwind along it hop by hop, so a
// probe is routable home even though intermediate links are only known
// pairwise.
type Probe struct {
	Op       uint64
	Kind     byte
	Attempt  int
	TTL      int
	Tag      uint64
	Val      float64
	Deadline int64
	Path     []graph.NodeID
}

// Resp is one replica's answer to a probe, travelling the recorded path
// in reverse. Has reports whether the replica held a value at contact
// time (inactive joiners answer Has=false and do not count toward read
// quorums); Replica identifies the answering member for initiator-side
// deduplication across overlapping walks.
type Resp struct {
	Op       uint64
	Kind     byte
	Attempt  int
	Has      bool
	Replica  graph.NodeID
	Tag      uint64
	Val      float64
	Deadline int64
	Path     []graph.NodeID
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// wireSize is the length of the probe's wire form.
func (p *Probe) wireSize() int { return probeWireHeader + 8*len(p.Path) }

// encodeTo writes the probe's canonical wire form into b, which must be
// p.wireSize() bytes long: fixed-width little-endian fields, then the
// path as uint64 entries. It panics on paths over MaxWirePath — honest
// walks are TTL-bounded far below it.
func (p *Probe) encodeTo(b []byte) {
	checkPath(len(p.Path))
	b[0] = probeWireVersion
	b[1] = p.Kind
	b[2] = clampByte(p.Attempt)
	b[3] = clampByte(p.TTL)
	binary.LittleEndian.PutUint64(b[4:], p.Op)
	binary.LittleEndian.PutUint64(b[12:], p.Tag)
	binary.LittleEndian.PutUint64(b[20:], math.Float64bits(p.Val))
	binary.LittleEndian.PutUint64(b[28:], uint64(p.Deadline))
	b[36] = byte(len(p.Path))
	writePath(b[probeWireHeader:], p.Path)
}

// decodeProbe parses a wire probe, rejecting version/kind/length
// mismatches and IDs outside [0, graph.MaxNodeID], and decodes the path
// into scratch's array, grown if it is too short, so a hot caller can
// reuse one buffer. It never panics on adversarial input (FuzzTQWire
// holds it to that), and encoding what it accepts gives back b.
func decodeProbe(b []byte, scratch []graph.NodeID) (Probe, error) {
	if len(b) < probeWireHeader {
		return Probe{}, fmt.Errorf("tq: probe truncated at %d bytes", len(b))
	}
	if b[0] != probeWireVersion {
		return Probe{}, fmt.Errorf("tq: unknown probe wire version %d", b[0])
	}
	if b[1] != KindRead && b[1] != KindWrite {
		return Probe{}, fmt.Errorf("tq: unknown probe kind %d", b[1])
	}
	n := int(b[36])
	if n > MaxWirePath {
		return Probe{}, fmt.Errorf("tq: probe path of %d exceeds the wire cap %d", n, MaxWirePath)
	}
	if len(b) != probeWireHeader+8*n {
		return Probe{}, fmt.Errorf("tq: probe with %d path entries is %d bytes, want %d", n, len(b), probeWireHeader+8*n)
	}
	path, err := readPath(scratch, b[probeWireHeader:], n)
	if err != nil {
		return Probe{}, err
	}
	return Probe{
		Op:       binary.LittleEndian.Uint64(b[4:]),
		Kind:     b[1],
		Attempt:  int(b[2]),
		TTL:      int(b[3]),
		Tag:      binary.LittleEndian.Uint64(b[12:]),
		Val:      math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
		Deadline: int64(binary.LittleEndian.Uint64(b[28:])),
		Path:     path,
	}, nil
}

// wireSize is the length of the response's wire form.
func (r *Resp) wireSize() int { return respWireHeader + 8*len(r.Path) }

// encodeTo writes the response's canonical wire form into b, which must
// be r.wireSize() bytes long. It panics on paths over MaxWirePath, like
// the probe's.
func (r *Resp) encodeTo(b []byte) {
	checkPath(len(r.Path))
	b[0] = respWireVersion
	b[1] = r.Kind
	b[2] = clampByte(r.Attempt)
	b[3] = 0
	if r.Has {
		b[3] = 1
	}
	binary.LittleEndian.PutUint64(b[4:], r.Op)
	binary.LittleEndian.PutUint64(b[12:], uint64(r.Replica))
	binary.LittleEndian.PutUint64(b[20:], r.Tag)
	binary.LittleEndian.PutUint64(b[28:], math.Float64bits(r.Val))
	binary.LittleEndian.PutUint64(b[36:], uint64(r.Deadline))
	b[44] = byte(len(r.Path))
	writePath(b[respWireHeader:], r.Path)
}

// decodeResp parses a wire response into scratch's array with the same
// guarantees as decodeProbe.
func decodeResp(b []byte, scratch []graph.NodeID) (Resp, error) {
	if len(b) < respWireHeader {
		return Resp{}, fmt.Errorf("tq: resp truncated at %d bytes", len(b))
	}
	if b[0] != respWireVersion {
		return Resp{}, fmt.Errorf("tq: unknown resp wire version %d", b[0])
	}
	if b[1] != KindRead && b[1] != KindWrite {
		return Resp{}, fmt.Errorf("tq: unknown resp kind %d", b[1])
	}
	if b[3] > 1 {
		return Resp{}, fmt.Errorf("tq: non-canonical resp has byte %d", b[3])
	}
	n := int(b[44])
	if n > MaxWirePath {
		return Resp{}, fmt.Errorf("tq: resp path of %d exceeds the wire cap %d", n, MaxWirePath)
	}
	if len(b) != respWireHeader+8*n {
		return Resp{}, fmt.Errorf("tq: resp with %d path entries is %d bytes, want %d", n, len(b), respWireHeader+8*n)
	}
	replica, err := graph.WireID(binary.LittleEndian.Uint64(b[12:]))
	if err != nil {
		return Resp{}, fmt.Errorf("tq: resp replica: %w", err)
	}
	path, err := readPath(scratch, b[respWireHeader:], n)
	if err != nil {
		return Resp{}, err
	}
	return Resp{
		Op:       binary.LittleEndian.Uint64(b[4:]),
		Kind:     b[1],
		Attempt:  int(b[2]),
		Has:      b[3] == 1,
		Replica:  replica,
		Tag:      binary.LittleEndian.Uint64(b[20:]),
		Val:      math.Float64frombits(binary.LittleEndian.Uint64(b[28:])),
		Deadline: int64(binary.LittleEndian.Uint64(b[36:])),
		Path:     path,
	}, nil
}

// checkPath panics on a path too long to encode.
func checkPath(n int) {
	if n > MaxWirePath {
		panic(fmt.Sprintf("tq: encoding a %d-hop path exceeds the wire cap %d", n, MaxWirePath))
	}
}

// writePath renders path as little-endian uint64 entries at the head of b.
func writePath(b []byte, path []graph.NodeID) {
	for i, id := range path {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(id))
	}
}

// readPath decodes n wire path entries from b into dst's array (grown if
// too short), rejecting an entry outside [0, graph.MaxNodeID]; an empty
// path decodes as nil.
func readPath(dst []graph.NodeID, b []byte, n int) ([]graph.NodeID, error) {
	if n == 0 {
		return nil, nil
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		id, err := graph.WireID(binary.LittleEndian.Uint64(b[8*i:]))
		if err != nil {
			return nil, fmt.Errorf("tq: path entry %d: %w", i, err)
		}
		dst[i] = id
	}
	return dst, nil
}
