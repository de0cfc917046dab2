package graph

import "math/bits"

// A Table pages the IDs in [0, MaxNodeID]: 2^pageBits consecutive IDs
// share a page, and up to 2^bookBits consecutive pages share a book.
const (
	pageBits  = 10
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
	pageWords = pageSize / 64
	minVals   = 64 // the fewest value slots a page holds
	bookBits  = 10
	bookMask  = 1<<bookBits - 1
)

// Table maps NodeIDs to values. Arrival models hand out small,
// consecutive IDs, so an ID indexes a page of 1 024 slots instead of
// being hashed: a lookup is a few dependent loads and a bit test. A page
// is allocated when its first ID is set and freed when its last one is
// deleted; its values run to the smallest power of two, at least 64,
// that covers its highest slot set so far, so a small table does not pay
// for 1 024 slots. Pages are found through books, lists of up to 1 024
// page pointers that run to their last allocated page, so memory follows
// the pages with live IDs, not the largest ID ever seen. A negative ID is
// no identity: Set panics on it, and Ref, Get and Delete find no entry.
// The zero value is an empty table ready to use.
type Table[V any] struct {
	books [][]*tablePage[V] // books[b][i] pages IDs from (b<<bookBits|i)<<pageBits
	n     int
}

type tablePage[V any] struct {
	vals []V               // doubled on demand up to pageSize slots
	used [pageWords]uint64 // bit i set: vals[i] holds an entry
	n    int
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// page returns the page that holds id, or nil if none is allocated. A
// negative id reads as 2^31 or above, past every book.
func (t *Table[V]) page(id NodeID) *tablePage[V] {
	if b := int(uint32(id) >> (pageBits + bookBits)); b < len(t.books) {
		if bk, i := t.books[b], int(id>>pageBits&bookMask); i < len(bk) {
			return bk[i]
		}
	}
	return nil
}

// Ref returns a pointer to id's value, or nil when id has no entry. The
// pointer stays valid until the next Set of an ID without an entry (which
// may grow the page) or the deletion of id.
func (t *Table[V]) Ref(id NodeID) *V {
	if pg := t.page(id); pg != nil {
		if j := id & pageMask; pg.used[j>>6]&(1<<(j&63)) != 0 {
			return &pg.vals[j]
		}
	}
	return nil
}

// Get returns id's value and whether it has one; absent, the zero value.
func (t *Table[V]) Get(id NodeID) (V, bool) {
	if r := t.Ref(id); r != nil {
		return *r, true
	}
	var zero V
	return zero, false
}

// Set stores v as id's value.
func (t *Table[V]) Set(id NodeID, v V) {
	if id < 0 {
		panic("graph: Table.Set of a negative identity")
	}
	b, i := int(id>>(pageBits+bookBits)), int(id>>pageBits&bookMask)
	if b >= len(t.books) {
		t.books = append(t.books, make([][]*tablePage[V], b+1-len(t.books))...)
	}
	bk := t.books[b]
	if i >= len(bk) {
		bk = append(bk, make([]*tablePage[V], i+1-len(bk))...)
		t.books[b] = bk
	}
	pg := bk[i]
	if pg == nil {
		pg = new(tablePage[V])
		bk[i] = pg
	}
	j := id & pageMask
	if int(j) >= len(pg.vals) {
		vals := make([]V, max(minVals, 1<<bits.Len(uint(j))))
		copy(vals, pg.vals)
		pg.vals = vals
	}
	if w, bit := &pg.used[j>>6], uint64(1)<<(j&63); *w&bit == 0 {
		*w |= bit
		pg.n++
		t.n++
	}
	pg.vals[j] = v
}

// Delete removes id's entry, if any.
func (t *Table[V]) Delete(id NodeID) {
	pg := t.page(id)
	if pg == nil {
		return
	}
	j := id & pageMask
	w, bit := &pg.used[j>>6], uint64(1)<<(j&63)
	if *w&bit == 0 {
		return
	}
	*w &^= bit
	var zero V
	pg.vals[j] = zero
	t.n--
	if pg.n--; pg.n > 0 {
		return
	}
	// The page emptied: free it, and cut the book and the book list back
	// to their last allocated entries.
	b := int(id >> (pageBits + bookBits))
	bk := t.books[b]
	bk[id>>pageBits&bookMask] = nil
	for len(bk) > 0 && bk[len(bk)-1] == nil {
		bk = bk[:len(bk)-1]
	}
	if len(bk) == 0 {
		bk = nil // frees the book's array
	}
	t.books[b] = bk
	for len(t.books) > 0 && t.books[len(t.books)-1] == nil {
		t.books = t.books[:len(t.books)-1]
	}
}

// Each calls f with every entry, in ascending ID order. f must not set or
// delete entries.
func (t *Table[V]) Each(f func(id NodeID, v V)) {
	for b, bk := range t.books {
		for i, pg := range bk {
			if pg == nil {
				continue
			}
			base := NodeID(b<<bookBits|i) << pageBits
			for wi, w := range pg.used {
				for ; w != 0; w &= w - 1 {
					j := wi<<6 | bits.TrailingZeros64(w)
					f(base|NodeID(j), pg.vals[j])
				}
			}
		}
	}
}
