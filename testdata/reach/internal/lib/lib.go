// Package lib holds one identifier of each kind the scan judges.
package lib

// Used is called by the program.
func Used() {}

// Dead is called by nothing.
func Dead() {}

// OwnTestOnly is called only by this package's tests.
func OwnTestOnly() int { return 1 }

// OtherTestOnly is called only by another package's test.
func OtherTestOnly() int { return 2 }

// Table is generic; the program uses its methods only through Table[int].
type Table[T any] struct{ v T }

// Put stores v.
func (t *Table[T]) Put(v T) { t.v = v }

// Get returns what Put stored.
func (t *Table[T]) Get() T { return t.v }

// Named is printed by the program, which calls String through fmt.Stringer.
type Named struct{}

func (Named) String() string { return "named" }

// Options has one field the program sets and one it only reads.
type Options struct {
	Set   int
	Unset int
}

// Config is decoded from JSON, which writes its fields.
type Config struct {
	Name string
}

// Tuned has one field the program sets and one that only its defaults set.
type Tuned struct {
	Knob  int
	Fixed int
}

func (t Tuned) withDefaults() Tuned {
	if t.Fixed == 0 {
		t.Fixed = 4
	}
	return t
}

// Total sums the resolved fields.
func (t Tuned) Total() int {
	t = t.withDefaults()
	return t.Knob + t.Fixed
}

// Run reads a flag nothing ever raises.
type Run struct {
	steps   int
	stopped bool
}

// Step advances the run unless it was stopped.
func (r *Run) Step() int {
	if !r.stopped {
		r.steps++
	}
	return r.steps
}

// Bits is written only through an element's address, as a bitmap page is.
type Bits struct{ words [2]uint64 }

// Set raises bit i.
func (b *Bits) Set(i int) {
	w := &b.words[i>>6]
	*w |= 1 << (i & 63)
}

// Has reports bit i.
func (b *Bits) Has(i int) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// Wheel is written only by assigning its elements, as a timing wheel's
// buckets are.
type Wheel struct{ slots [4]int }

// Reset empties every slot.
func (w *Wheel) Reset() {
	for i := range w.slots {
		w.slots[i] = -1
	}
}

// Slot returns slot i.
func (w *Wheel) Slot(i int) int { return w.slots[i] }
