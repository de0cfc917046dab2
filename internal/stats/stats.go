// Package stats provides the summary statistics and plain-text table
// rendering the experiment harness reports with.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddBool appends 1 for true, 0 for false (success-rate accounting).
func (s *Sample) AddBool(b bool) {
	if b {
		s.Add(1)
	} else {
		s.Add(0)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (NaN when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (NaN when empty).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between order statistics (NaN when empty).
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := make([]float64, n)
	copy(sorted, s.xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Table renders aligned plain-text tables, one row of cells at a time —
// the format every experiment prints its results in.
type Table struct {
	header  []string
	rows    [][]string
	context []bool // per column: machine-dependent context, not a result
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header, context: make([]bool, len(header))}
}

// Context marks the named columns as machine-dependent context — wall
// rates, allocation counts, heap sizes — that two runs of one seed need
// not share. Masked shows their cells as "~". It panics on a name the
// header lacks.
func (t *Table) Context(names ...string) {
	for _, name := range names {
		i := slices.Index(t.header, name)
		if i < 0 {
			panic(fmt.Sprintf("stats: no column %q", name))
		}
		t.context[i] = true
	}
}

// AddRow appends a row; cells are stringified with %v. Rows shorter than
// the header are padded, longer ones panic.
func (t *Table) AddRow(cells ...any) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.header)))
	}
	row := make([]string, len(t.header))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string { return t.render(t.rows) }

// Masked renders the table as String does, with every context cell shown
// as "~": the text two runs of one seed share on any machine.
func (t *Table) Masked() string {
	rows := make([][]string, len(t.rows))
	for r, row := range t.rows {
		rows[r] = slices.Clone(row)
		for i, ctx := range t.context {
			if ctx {
				rows[r][i] = "~"
			}
		}
	}
	return t.render(rows)
}

func (t *Table) render(rows [][]string) string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	renderRow := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ") + "\n"
	}
	var out strings.Builder
	out.WriteString(renderRow(t.header))
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	out.WriteString(renderRow(rule))
	for _, row := range rows {
		out.WriteString(renderRow(row))
	}
	return out.String()
}
