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
