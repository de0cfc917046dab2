package otq

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/rng"
)

const contribGoldenPath = "testdata/contrib_goldens.json"

// contribGolden is what one pooled payload must keep: its fingerprint,
// and its Tamper output as sorted (id, value) pairs plus that output's
// own fingerprint. Values print with strconv's shortest form, which
// keeps -0 apart from 0.
type contribGolden struct {
	Kind     string   `json:"kind"`
	Entries  int      `json:"entries"` // -1: a nil set
	FP       string   `json:"fp"`
	Tamper   []string `json:"tamper"`
	TamperFP string   `json:"tamper_fp"`
}

var goldenValues = []float64{0, math.Copysign(0, -1), 1, 2.5, -3.75, 1e9}

// contribPool draws the seeded payload pool: nil and empty sets and sets
// of 1–12 entries, with IDs dense enough to reach into the fabricated
// range, then one set holding every fabricated ID so Tamper's fabricated
// contributor always lands on an existing entry.
func contribPool() [][]contrib {
	r := rng.New(29)
	var pool [][]contrib
	for i := 0; i < 120; i++ {
		switch r.Intn(8) {
		case 0:
			pool = append(pool, nil)
			continue
		case 1:
			pool = append(pool, []contrib{})
			continue
		}
		n := 1 + r.Intn(12)
		base := 1
		if r.Intn(4) == 0 {
			base = fabricatedBase + r.Intn(1000-24)
		}
		ids := r.Perm(24)[:n]
		es := make([]contrib, n)
		for j, k := range ids {
			v := goldenValues[r.Intn(len(goldenValues))]
			if r.Intn(3) == 0 {
				v = float64(base+k) / 8
			}
			es[j] = contrib{graph.NodeID(base + k), v}
		}
		pool = append(pool, es)
	}
	all := make([]contrib, 1000)
	for j := range all {
		all[j] = contrib{graph.NodeID(fabricatedBase + 999 - j), float64(j)}
	}
	return append(pool, all)
}

// goldenKinds builds each payload type the exact protocols relay over a
// pooled set.
var goldenKinds = []struct {
	name  string
	build func(qid int, es []contrib) node.Tamperable
}{
	{"echo-set", func(_ int, es []contrib) node.Tamperable { return echoSetOf(es) }},
	{"tree-echo", func(_ int, es []contrib) node.Tamperable { return treeEchoMsg{Contrib: es} }},
	{"report", func(qid int, es []contrib) node.Tamperable { return reportMsg{QID: qid, Contrib: es} }},
}

// goldenPairs lists a payload's contribution set as sorted "id:value".
func goldenPairs(payload any) []string {
	var s []contrib
	switch p := payload.(type) {
	case echoSetMsg:
		s = p.set()
	case treeEchoMsg:
		s = p.Contrib
	case reportMsg:
		s = p.Contrib
	}
	s = slices.Clone(s)
	slices.SortFunc(s, func(a, b contrib) int { return cmp.Compare(a.ID, b.ID) })
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = fmt.Sprintf("%d:%s", c.ID, strconv.FormatFloat(c.V, 'g', -1, 64))
	}
	return out
}

func contribGoldens() []contribGolden {
	r := rng.New(7)
	var out []contribGolden
	for i, es := range contribPool() {
		k := goldenKinds[i%len(goldenKinds)]
		m := k.build(i%3, es)
		t := m.Tamper(r)
		n := len(es)
		if es == nil {
			n = -1
		}
		out = append(out, contribGolden{
			Kind:     k.name,
			Entries:  n,
			FP:       strconv.FormatUint(m.(node.Fingerprinter).Fingerprint(), 16),
			Tamper:   goldenPairs(t),
			TamperFP: strconv.FormatUint(t.(node.Fingerprinter).Fingerprint(), 16),
		})
	}
	return out
}

// TestContribGoldens holds the contribution payloads' Fingerprint and
// Tamper to figures frozen from the map-based payloads they replaced:
// every digest bit-identical, every tampered set the same pairs drawn
// with the same randomness.
func TestContribGoldens(t *testing.T) {
	got := contribGoldens()
	data, err := os.ReadFile(contribGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []contribGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pooled payloads, golden has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("payload %d (%s, %d entries):\n got %+v\nwant %+v", i, got[i].Kind, got[i].Entries, got[i], want[i])
		}
	}
}
