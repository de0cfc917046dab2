package pex

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Record is one membership claim inside a partial view: "entity ID was
// alive at tick Epoch". Hop is the record's age in exchange hops — it
// starts at 0 when the subject mints the record, increments once per
// transfer and once per local aging round, and is deliberately NOT
// covered by the signature (it legitimately mutates in flight; a forged
// hop can at worst make a record look older or younger within the decay
// horizon). Sig is the subject's transferable signature over (ID, Epoch):
// in the model only the subject can produce it, so a validly-signed
// record with a fresh Epoch is proof the subject was recently alive — the
// claim sybil and resurrected-dead records cannot fake. Hop is an int32
// beside the 32-bit ID, so a Record is 24 bytes; the wire clamps it to a
// uint16.
type Record struct {
	ID    graph.NodeID
	Hop   int32
	Epoch int64
	Sig   uint64
}

// keyOf derives an entity's record-signing key from the ceremony seed —
// the same modeling move as the audit sublayer's sigKey.
func keyOf(keySeed uint64, id graph.NodeID) uint64 {
	return rng.New(keySeed ^ uint64(id)*0x9e3779b97f4a7c15).Uint64()
}

// sigOver computes the signature of (id, epoch) under the subject's key.
func sigOver(keySeed uint64, id graph.NodeID, epoch int64) uint64 {
	return rng.Mix64(keyOf(keySeed, id) ^ uint64(epoch)*0x9fb21c651e98df25)
}

// SignRecord mints the subject's honestly-signed view record at the given
// tick: hop 0, fresh epoch, valid signature.
func SignRecord(keySeed uint64, id graph.NodeID, epoch int64) Record {
	return Record{ID: id, Epoch: epoch, Sig: sigOver(keySeed, id, epoch)}
}

// VerifyRecord checks the record's signature against the subject's
// derived key. Passing means "only r.ID could have produced Sig over
// (r.ID, r.Epoch)" — Hop is outside the signature by design.
func VerifyRecord(keySeed uint64, r Record) bool {
	return r.Sig == sigOver(keySeed, r.ID, r.Epoch)
}

// Wire-format limits. The codec rejects exchanges past MaxWireRecords
// (an exchange legitimately carries at most a view's worth of records)
// and clamps hops to the uint16 it ships them in.
const (
	MaxWireRecords = 128
	MaxWireHop     = 1<<16 - 1

	recordWireVersion = 1
	recordWireSize    = 8 + 2 + 8 + 8 // id + hop + epoch + sig
)

// EncodeRecords renders a record batch in its canonical wire form:
// a version byte, a uint16 count, then fixed-width little-endian records.
// It panics on batches over MaxWireRecords — honest exchange buffers are
// fanout-bounded far below it.
func EncodeRecords(recs []Record) []byte {
	b := make([]byte, WireSize(len(recs)))
	EncodeRecordsTo(b, recs)
	return b
}

// WireSize is the length of the wire batch of n records.
func WireSize(n int) int { return 3 + n*recordWireSize }

// EncodeRecordsTo is EncodeRecords writing into b, which must be exactly
// WireSize(len(recs)) bytes long, so a caller can encode into memory it
// already holds.
func EncodeRecordsTo(b []byte, recs []Record) {
	if len(recs) > MaxWireRecords {
		panic(fmt.Sprintf("pex: encoding %d records exceeds the wire cap %d", len(recs), MaxWireRecords))
	}
	if len(b) != WireSize(len(recs)) {
		panic(fmt.Sprintf("pex: encoding %d records into %d bytes, want %d", len(recs), len(b), WireSize(len(recs))))
	}
	b[0] = recordWireVersion
	binary.LittleEndian.PutUint16(b[1:], uint16(len(recs)))
	off := 3
	for _, r := range recs {
		hop := r.Hop
		if hop < 0 {
			hop = 0
		}
		if hop > MaxWireHop {
			hop = MaxWireHop
		}
		binary.LittleEndian.PutUint64(b[off:], uint64(r.ID))
		binary.LittleEndian.PutUint16(b[off+8:], uint16(hop))
		binary.LittleEndian.PutUint64(b[off+10:], uint64(r.Epoch))
		binary.LittleEndian.PutUint64(b[off+18:], r.Sig)
		off += recordWireSize
	}
}

// DecodeRecords parses a wire batch, rejecting version/length/count
// mismatches and IDs outside [0, graph.MaxNodeID]. It never panics on
// adversarial input (FuzzViewRecord holds it to that), and
// Encode(Decode(b)) == b for every accepted b.
func DecodeRecords(b []byte) ([]Record, error) {
	return AppendDecodedRecords(nil, b)
}

// AppendDecodedRecords is DecodeRecords appending to dst, so a hot caller
// can reuse one buffer across calls. On error dst comes back unchanged.
func AppendDecodedRecords(dst []Record, b []byte) ([]Record, error) {
	if len(b) < 3 {
		return dst, fmt.Errorf("pex: record batch truncated at %d bytes", len(b))
	}
	if b[0] != recordWireVersion {
		return dst, fmt.Errorf("pex: unknown record wire version %d", b[0])
	}
	n := int(binary.LittleEndian.Uint16(b[1:]))
	if n > MaxWireRecords {
		return dst, fmt.Errorf("pex: record count %d exceeds the wire cap %d", n, MaxWireRecords)
	}
	if len(b) != WireSize(n) {
		return dst, fmt.Errorf("pex: record batch of %d is %d bytes, want %d", n, len(b), WireSize(n))
	}
	k := len(dst)
	dst = slices.Grow(dst, n)
	for off := 3; off < len(b); off += recordWireSize {
		id, err := graph.WireID(binary.LittleEndian.Uint64(b[off:]))
		if err != nil {
			return dst[:k], fmt.Errorf("pex: record: %w", err)
		}
		dst = append(dst, Record{
			ID:    id,
			Hop:   int32(binary.LittleEndian.Uint16(b[off+8:])),
			Epoch: int64(binary.LittleEndian.Uint64(b[off+10:])),
			Sig:   binary.LittleEndian.Uint64(b[off+18:]),
		})
	}
	return dst, nil
}
