package pex

import (
	"testing"
	"unsafe"
)

// TestRecordSizes pins the view record the 32-bit graph.NodeID and the
// int32 Hop buy: the hop fills what was the ID's padding, so a Record is
// 24 bytes and an Entry, which every view and merge carries, 32.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Record) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Entry{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Entry) = %d, want 32", got)
	}
}
