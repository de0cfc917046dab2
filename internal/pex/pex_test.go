package pex

import (
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"rand", "head", "tail", "pushpull"} {
		p, err := ParsePolicy(name)
		if err != nil || string(p) != name {
			t.Fatalf("ParsePolicy(%q) = %q, %v", name, p, err)
		}
	}
	if _, err := ParsePolicy("roundrobin"); err == nil {
		t.Fatalf("ParsePolicy accepted an unknown policy")
	}
}

func TestConfigDefaults(t *testing.T) {
	d := Config{Enabled: true}.WithDefaults()
	if d.ViewSize != 8 || d.Policy != PolicyPushPull || d.SampleEvery != 8 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	if d.Audit.Enabled {
		t.Fatalf("defaults enabled the audit defense")
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	if err := (Config{Enabled: true}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestConfigValidateBounds(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative view", Config{Enabled: true, ViewSize: -1}, "ViewSize"},
		{"bad policy", Config{Enabled: true, Policy: "newest"}, "policy"},
		{"negative sample", Config{Enabled: true, SampleEvery: -4}, "SampleEvery"},
		// Messages must quote EFFECTIVE values: the defaulted config is
		// what was judged, so it is what the error describes.
		{"negative view quotes value", Config{Enabled: true, ViewSize: -3}, "ViewSize -3"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %s", tc.name, err, tc.want)
		}
	}
}

func TestSignVerify(t *testing.T) {
	r := SignRecord(7, 3, 100)
	if !VerifyRecord(7, r) {
		t.Fatalf("honest record failed verification")
	}
	forged := r
	forged.Epoch = 200
	if VerifyRecord(7, forged) {
		t.Fatalf("epoch forgery verified")
	}
	stolen := r
	stolen.ID = 4
	if VerifyRecord(7, stolen) {
		t.Fatalf("identity forgery verified")
	}
	if VerifyRecord(8, r) {
		t.Fatalf("record verified under the wrong ceremony seed")
	}
	// Hop is outside the signature by design: aging must not invalidate.
	aged := r
	aged.Hop = 12
	if !VerifyRecord(7, aged) {
		t.Fatalf("hop aging broke verification")
	}
}

func TestWireRoundTrip(t *testing.T) {
	recs := []Record{
		SignRecord(1, 5, 10),
		{ID: graph.MaxNodeID, Hop: 7, Epoch: -1, Sig: 0xdeadbeef},
		{ID: 9, Hop: MaxWireHop, Epoch: 1 << 40, Sig: 1},
	}
	b := EncodeRecords(recs)
	got, err := DecodeRecords(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip changed records:\n got %+v\nwant %+v", got, recs)
	}
	if b2 := EncodeRecords(got); !reflect.DeepEqual(b2, b) {
		t.Fatalf("re-encode is not canonical")
	}
	if empty, err := DecodeRecords(EncodeRecords(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty batch round trip: %v, %v", empty, err)
	}
}

func TestWireRejects(t *testing.T) {
	good := EncodeRecords([]Record{SignRecord(1, 2, 3)})
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:2],
		"bad version":    append([]byte{9}, good[1:]...),
		"truncated body": good[:len(good)-1],
		"padded body":    append(append([]byte{}, good...), 0),
		"count lies":     {recordWireVersion, 2, 0},
		// IDs outside [0, MaxNodeID] are refused, never truncated.
		"ID 2^31":   putID(good, 0, 1<<31),
		"ID 2^64-1": putID(good, 0, 1<<64-1),
		"second ID": putID(EncodeRecords([]Record{SignRecord(1, 2, 3), SignRecord(1, 4, 3)}), 1, 1<<31),
	}
	for name, b := range cases {
		if _, err := DecodeRecords(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
		dst := []Record{{ID: 7}}
		if got, err := AppendDecodedRecords(dst, b); err == nil || !slices.Equal(got, dst) {
			t.Errorf("%s: AppendDecodedRecords = %v, %v; want dst unchanged and an error", name, got, err)
		}
	}
	// Over-cap counts are rejected even when the length would match.
	big := make([]byte, 3+(MaxWireRecords+1)*recordWireSize)
	big[0] = recordWireVersion
	big[1] = byte((MaxWireRecords + 1) & 0xff)
	big[2] = byte((MaxWireRecords + 1) >> 8)
	if _, err := DecodeRecords(big); err == nil {
		t.Errorf("over-cap batch accepted")
	}
}

// putID overwrites record i's wire ID in a copy of batch b.
func putID(b []byte, i int, v uint64) []byte {
	c := slices.Clone(b)
	binary.LittleEndian.PutUint64(c[3+i*recordWireSize:], v)
	return c
}

func TestEncodePanicsOverCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("EncodeRecords accepted an over-cap batch")
		}
	}()
	EncodeRecords(make([]Record, MaxWireRecords+1))
}

func view(t *testing.T, cap int, recs ...Record) *View {
	t.Helper()
	v := NewView(cap)
	for _, r := range recs {
		v.Merge(Entry{Rec: r})
	}
	return v
}

// members returns a view's held subject IDs, ascending.
func members(v *View) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range v.Entries() {
		out = append(out, e.Rec.ID)
	}
	slices.Sort(out)
	return out
}

func TestViewMerge(t *testing.T) {
	v := view(t, 3, Record{ID: 1, Hop: 2, Epoch: 10}, Record{ID: 2, Hop: 1, Epoch: 10})
	// Same subject, fresher epoch: replace.
	if ok, _ := v.Merge(Entry{Rec: Record{ID: 1, Hop: 5, Epoch: 11}}); !ok {
		t.Fatalf("fresher record rejected")
	}
	// Same subject, staler epoch: reject.
	if ok, _ := v.Merge(Entry{Rec: Record{ID: 1, Hop: 0, Epoch: 9}}); ok {
		t.Fatalf("staler record accepted")
	}
	// Same epoch, fewer hops: replace.
	if ok, _ := v.Merge(Entry{Rec: Record{ID: 1, Hop: 1, Epoch: 11}}); !ok {
		t.Fatalf("lower-hop record rejected")
	}
	// Fill, then evict oldest (highest hop).
	v.Merge(Entry{Rec: Record{ID: 3, Hop: 9, Epoch: 10}})
	ok, evicted := v.Merge(Entry{Rec: Record{ID: 4, Hop: 0, Epoch: 12}})
	if !ok || evicted == nil || evicted.ID != 3 {
		t.Fatalf("expected eviction of oldest (3), got ok=%v evicted=%+v", ok, evicted)
	}
	// A newcomer older than everything held bounces off a full view.
	if ok, _ := v.Merge(Entry{Rec: Record{ID: 5, Hop: 99, Epoch: 1}}); ok {
		t.Fatalf("full view accepted the oldest record")
	}
	if got := members(v); !reflect.DeepEqual(got, []graph.NodeID{1, 2, 4}) {
		t.Fatalf("members = %v", got)
	}
}

func TestViewAgeDecay(t *testing.T) {
	v := view(t, 4, Record{ID: 1, Hop: 0}, Record{ID: 2, Hop: 3})
	prefix := []Record{{ID: 77}}
	if dropped := v.Age(prefix, 3); len(dropped) != 2 || dropped[0].ID != 77 || dropped[1].ID != 2 {
		t.Fatalf("Age dropped %+v after the prefix", dropped)
	}
	if v.Len() != 1 || !v.Contains(1) || v.Entries()[0].Rec.Hop != 1 {
		t.Fatalf("view after aging: %+v", v.Entries())
	}
}

func TestViewRemoveVia(t *testing.T) {
	v := NewView(4)
	v.Merge(Entry{Rec: Record{ID: 1}, Via: 9})
	v.Merge(Entry{Rec: Record{ID: 2}, Via: 5})
	v.Merge(Entry{Rec: Record{ID: 9, Hop: 1}, Via: 3})
	dropped := v.RemoveVia(nil, 9)
	// Both 9's contribution (record of 1) and 9's own record go.
	if len(dropped) != 2 || v.Contains(1) || v.Contains(9) || !v.Contains(2) {
		t.Fatalf("RemoveVia(9): dropped %+v, members %v", dropped, members(v))
	}
}

func TestSelectionPolicies(t *testing.T) {
	recs := []Record{
		{ID: 10, Hop: 0}, {ID: 11, Hop: 2}, {ID: 12, Hop: 5}, {ID: 13, Hop: 9},
	}
	v := view(t, 8, recs...)
	if id, ok := v.SelectPartner(rng.New(1), PolicyHead, nil); !ok || id != 10 {
		t.Fatalf("head partner = %d", id)
	}
	if id, ok := v.SelectPartner(rng.New(1), PolicyTail, nil); !ok || id != 13 {
		t.Fatalf("tail partner = %d", id)
	}
	if _, ok := v.SelectPartner(rng.New(1), PolicyRand, func(graph.NodeID) bool { return false }); ok {
		t.Fatalf("partner found with nothing eligible")
	}
	// Eligibility filters before the policy applies.
	if id, ok := v.SelectPartner(rng.New(1), PolicyHead, func(id graph.NodeID) bool { return id != 10 }); !ok || id != 11 {
		t.Fatalf("filtered head partner = %d", id)
	}
	if got := v.AppendRecords(nil, rng.New(1), PolicyHead, 2, 16, 0); len(got) != 2 || got[0].ID != 10 || got[1].ID != 11 {
		t.Fatalf("head records = %+v", got)
	}
	if got := v.AppendRecords(nil, rng.New(1), PolicyTail, 2, 16, 0); len(got) != 2 || got[0].ID != 12 || got[1].ID != 13 {
		t.Fatalf("tail records = %+v", got)
	}
	// Only records with hop strictly below maxHop survive the transfer
	// increment; skip drops the partner's own record. Of {10, 11, 12, 13}
	// that leaves just 11 (10 is skipped, 12 and 13 are at/past hop 5).
	if got := v.AppendRecords(nil, rng.New(1), PolicyRand, 8, 5, 10); len(got) != 1 || got[0].ID != 11 {
		t.Fatalf("filtered records = %+v", got)
	}
	// Random selection is deterministic under a fixed seed.
	a := v.AppendRecords(nil, rng.New(7), PolicyRand, 2, 16, 0)
	b := v.AppendRecords(nil, rng.New(7), PolicyRand, 2, 16, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rand selection not deterministic: %v vs %v", a, b)
	}
}

// FuzzViewRecord holds the wire codec to its contract: decoding never
// panics, and every accepted batch re-encodes to the identical bytes.
func FuzzViewRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecords(nil))
	f.Add(EncodeRecords([]Record{SignRecord(1, 2, 3)}))
	f.Add(EncodeRecords([]Record{
		{ID: -9, Hop: MaxWireHop, Epoch: -5, Sig: 42},
		SignRecord(0, 7, 1<<40),
	}))
	two := EncodeRecords([]Record{SignRecord(1, 2, 3), SignRecord(1, 4, 3)})
	f.Add(putID(two, 0, 1<<31))
	f.Add(putID(two, 1, 1<<64-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := DecodeRecords(b)
		if err != nil {
			return
		}
		if got := EncodeRecords(recs); !reflect.DeepEqual(got, b) {
			t.Fatalf("accepted batch is not canonical:\n in  %x\n out %x", b, got)
		}
	})
}
