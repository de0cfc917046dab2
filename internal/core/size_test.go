package core

import (
	"testing"
	"unsafe"
)

// TestIDBearingSizes pins the bytes the 32-bit graph.NodeID buys the
// trace: a retained record, a buffered topology change and a public
// event. Widening the ID, or adding a field, fails it.
func TestIDBearingSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"logRecord", unsafe.Sizeof(logRecord{}), 16},
		{"TopoChange", unsafe.Sizeof(TopoChange{}), 12},
		{"TraceEvent", unsafe.Sizeof(TraceEvent{}), 40},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
