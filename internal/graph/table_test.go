package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// tableIDs are the IDs the differential draws from: both sides of page
// and book boundaries, the extremes, and slots that grow a page's values
// from 64 to 128 and to 256.
var tableIDs = []NodeID{
	0, 1, minVals - 1, minVals, 200, pageSize - 1, pageSize, pageSize + 1, 3*pageSize - 1, 3 * pageSize,
	1<<(pageBits+bookBits) - 1, 1 << (pageBits + bookBits),
	MaxNodeID - pageSize, MaxNodeID - 1, MaxNodeID,
}

// TestTableMatchesMap drives a Table and a map through the same seeded
// random Set, Get, Ref, Delete and Each calls over tableIDs and requires
// them to agree after every one: same values, same length, the same
// entries visited once each, in ascending order. A page must be allocated exactly while it holds a live ID, and
// each book, and the book list, must end on a live entry.
func TestTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		var tab Table[int]
		ref := make(map[NodeID]int)
		for step := 0; step < 300; step++ {
			id := tableIDs[r.Intn(len(tableIDs))]
			switch r.Intn(4) {
			case 0, 1:
				v := r.Intn(1000)
				tab.Set(id, v)
				ref[id] = v
			case 2:
				tab.Delete(id)
				delete(ref, id)
			case 3:
				got, ok := tab.Get(id)
				want, wantOK := ref[id]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Get(%d) = %d, %v, want %d, %v", seed, step, id, got, ok, want, wantOK)
				}
				if p := tab.Ref(id); (p != nil) != wantOK || (p != nil && *p != want) {
					t.Fatalf("seed %d step %d: Ref(%d) disagrees with the map's %d, %v", seed, step, id, want, wantOK)
				}
			}
			tableAgrees(t, seed, step, &tab, ref)
		}
	}
}

func tableAgrees(t *testing.T, seed uint64, step int, tab *Table[int], ref map[NodeID]int) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, tab.Len(), len(ref))
	}
	var seen []NodeID
	tab.Each(func(id NodeID, v int) {
		if want, ok := ref[id]; !ok || v != want {
			t.Fatalf("seed %d step %d: Each visited %d = %d, want %d, %v", seed, step, id, v, want, ok)
		}
		seen = append(seen, id)
	})
	if !slices.IsSorted(seen) {
		t.Fatalf("seed %d step %d: IDs visited as %v, want ascending", seed, step, seen)
	}
	if len(seen) != len(ref) {
		t.Fatalf("seed %d step %d: Each visited %d entries, want %d", seed, step, len(seen), len(ref))
	}
	live := make(map[int]bool) // page index → holds a live ID
	for id := range ref {
		live[int(id>>pageBits)] = true
	}
	pages := 0
	for b, bk := range tab.books {
		if k := len(bk); k > 0 && bk[k-1] == nil || (k == 0) != (bk == nil) {
			t.Fatalf("seed %d step %d: book %d runs past its last page (%d entries)", seed, step, b, k)
		}
		for i, pg := range bk {
			if (pg != nil) != live[b<<bookBits|i] {
				t.Fatalf("seed %d step %d: page %d allocated = %v, live = %v", seed, step, b<<bookBits|i, pg != nil, live[b<<bookBits|i])
			}
			if pg != nil {
				pages++
				if k := len(pg.vals); k < minVals || k > pageSize || k&(k-1) != 0 {
					t.Fatalf("seed %d step %d: page %d holds %d value slots, want a power of two in [%d, %d]", seed, step, b<<bookBits|i, k, minVals, pageSize)
				}
			}
		}
	}
	for id := range ref {
		if pg := tab.page(id); int(id&pageMask) >= len(pg.vals) {
			t.Fatalf("seed %d step %d: ID %d lies past its page's %d value slots", seed, step, id, len(pg.vals))
		}
	}
	if pages != len(live) {
		t.Fatalf("seed %d step %d: %d pages allocated, %d live", seed, step, pages, len(live))
	}
	if k := len(tab.books); k > 0 && tab.books[k-1] == nil {
		t.Fatalf("seed %d step %d: the book list ends on a freed book (%d books)", seed, step, k)
	}
}

// TestTableRejectsNegativeIDs pins what a negative ID, which no ID source
// hands out, meets: Set panics naming it, and Ref, Get and Delete find no
// entry, even beside a full top book.
func TestTableRejectsNegativeIDs(t *testing.T) {
	var tab Table[int]
	tab.Set(0, 1)
	tab.Set(MaxNodeID, 2)
	for _, id := range []NodeID{-1, -pageSize, math.MinInt32} {
		if r, ok := tab.Get(id); ok || tab.Ref(id) != nil {
			t.Errorf("Get(%d) = %d, %v; want absent", id, r, ok)
		}
		tab.Delete(id)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "negative identity") {
					t.Errorf("Set(%d) recovered %v, want a negative-identity panic", id, r)
				}
			}()
			tab.Set(id, 3)
		}()
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d after the refused calls, want 2", tab.Len())
	}
}

// TestSmallGraphBytes bounds what a 64-node ring allocates: its one page
// holds 64 value slots, not 1 024 (about 25 KiB of adjacency headers).
func TestSmallGraphBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := ring(64)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 6<<10 {
		t.Errorf("a 64-node ring allocated %d bytes, want <= %d", got, 6<<10)
	}
	if got := len(g.adj.page(0).vals); got != minVals {
		t.Errorf("its page holds %d value slots, want %d", got, minVals)
	}
}

// TestNodeIDWidth pins the identity at 32 bits, and WireID's range: a
// wire value is an identity exactly when it lies in [0, MaxNodeID].
func TestNodeIDWidth(t *testing.T) {
	if got := unsafe.Sizeof(NodeID(0)); got != 4 {
		t.Errorf("unsafe.Sizeof(NodeID) = %d, want 4", got)
	}
	for _, c := range []struct {
		u  uint64
		ok bool
	}{{0, true}, {uint64(MaxNodeID), true}, {1 << 31, false}, {1<<32 + 5, false}, {1<<64 - 1, false}} {
		if id, err := WireID(c.u); (err == nil) != c.ok || (c.ok && uint64(id) != c.u) {
			t.Errorf("WireID(%d) = %d, %v; want ok = %v", c.u, id, err, c.ok)
		}
	}
}
