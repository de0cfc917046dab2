// Package sketch implements Flajolet-Martin (PCSA) distinct-count
// sketches: fixed-size summaries whose merge is a bitwise OR — idempotent,
// commutative and associative. Idempotence is the property that matters
// in a dynamic system: a contribution may travel along many redundant
// paths and be merged any number of times without inflating the count, so
// aggregation protocols can flood sketches freely where exact summaries
// would need duplicate suppression (per-contributor identity sets whose
// size grows with the system). The price is approximation: the estimate's
// standard error is about 0.78/sqrt(rows).
package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// phi is the Flajolet-Martin correction constant.
const phi = 0.77351

// FM is a probabilistic counting sketch with stochastic averaging: Rows
// independent first-zero bitmaps. The zero value is not usable; construct
// with New. FM values are plain data: copy with Clone, merge with Merge.
type FM struct {
	rows []uint64
}

// New returns an empty sketch with the given number of rows (accuracy
// ~0.78/sqrt(rows) relative standard error). rows must be positive.
func New(rows int) *FM {
	if rows <= 0 {
		panic("sketch: non-positive rows")
	}
	return &FM{rows: make([]uint64, rows)}
}

// Rows returns the number of rows.
func (s *FM) Rows() int { return len(s.rows) }

// hash mixes an item identity with a row index (splitmix64 finalizer).
func hash(item uint64, row int) uint64 {
	return rng.Mix64(item ^ (uint64(row)+1)*0x9e3779b97f4a7c15)
}

// Add records an item. Adding the same item again never changes the
// sketch (duplicate insensitivity).
func (s *FM) Add(item uint64) {
	row := int(hash(item, -1) % uint64(len(s.rows)))
	h := hash(item, row)
	bit := bits.TrailingZeros64(h)
	if bit > 63 {
		bit = 63
	}
	s.rows[row] |= 1 << uint(bit)
}

// Merge ORs another sketch into this one. The sketches must have the
// same number of rows.
func (s *FM) Merge(t *FM) {
	if len(s.rows) != len(t.rows) {
		panic(fmt.Sprintf("sketch: merging %d rows with %d rows", len(s.rows), len(t.rows)))
	}
	for i := range s.rows {
		s.rows[i] |= t.rows[i]
	}
}

// Clone returns a deep copy.
func (s *FM) Clone() *FM {
	c := New(len(s.rows))
	copy(c.rows, s.rows)
	return c
}

// Equal reports whether two sketches hold identical state.
func (s *FM) Equal(t *FM) bool {
	if len(s.rows) != len(t.rows) {
		return false
	}
	for i := range s.rows {
		if s.rows[i] != t.rows[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether nothing was ever added.
func (s *FM) IsEmpty() bool {
	for _, r := range s.rows {
		if r != 0 {
			return false
		}
	}
	return true
}

// Estimate returns the approximate number of distinct items added across
// all merged sketches.
func (s *FM) Estimate() float64 {
	if s.IsEmpty() {
		return 0
	}
	m := float64(len(s.rows))
	sumR := 0
	for _, row := range s.rows {
		// R = index of the lowest zero bit.
		sumR += bits.TrailingZeros64(^row)
	}
	raw := m / phi * math.Pow(2, float64(sumR)/m)
	// Small-cardinality correction (linear counting regime): with few
	// items most rows are untouched and the power estimate biases high.
	untouched := 0
	for _, row := range s.rows {
		if row == 0 {
			untouched++
		}
	}
	if float64(untouched) >= 0.05*m {
		// Enough empty rows for linear counting to be the better
		// estimator; beyond this the power estimate takes over.
		return -m * math.Log(float64(untouched)/m)
	}
	return raw
}

// Words returns the sketch's size in 64-bit words — the payload cost a
// protocol pays per message carrying it.
func (s *FM) Words() int { return len(s.rows) }
