package node

import (
	"testing"
	"unsafe"
)

// TestIDBearingSizes pins the message the 32-bit graph.NodeID buys, and
// keeps the delivery envelope that carries it by value inside the
// runtime's 112-byte size class.
func TestIDBearingSizes(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Message) = %d, want 88", got)
	}
	if got := unsafe.Sizeof(deliveryEnv{}); got > 112 {
		t.Errorf("unsafe.Sizeof(deliveryEnv) = %d, want <= 112", got)
	}
}
