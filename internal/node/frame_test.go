package node

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFramesDoNotAlias: frames carved back to back from one chunk have
// cap == len, so appending to one reallocates instead of writing into its
// neighbour; the same holds for an exchange's wire bytes, for a frame too
// large to share a chunk, and across a chunk refill.
func TestFramesDoNotAlias(t *testing.T) {
	w := NewWorld(sim.New(), topology.NewMesh(), nil, Config{})
	p := w.Join(graph.NodeID(1))
	fill := func(b []byte, v byte) {
		for i := range b {
			b[i] = v
		}
	}
	var carved [][]byte
	for i := 0; i < 3*frameByteChunk/100; i++ {
		n := 1 + i%150
		if i%97 == 0 {
			n = frameOwnAlloc + 1
		}
		var b []byte
		if i%2 == 0 {
			b = p.Frame(n).B
		} else {
			b = w.frames.exchange(i%3 == 0, n).Wire
		}
		if len(b) != n || cap(b) != n {
			t.Fatalf("frame %d: len %d cap %d, want both %d", i, len(b), cap(b), n)
		}
		if !bytes.Equal(b, make([]byte, n)) {
			t.Fatalf("frame %d was not carved zeroed", i)
		}
		fill(b, byte(i))
		carved = append(carved, b)
	}
	for i, b := range carved[:len(carved)-1] {
		_ = append(b, 0xee, 0xee, 0xee)
		if want := bytes.Repeat([]byte{byte(i + 1)}, len(carved[i+1])); !bytes.Equal(carved[i+1], want) {
			t.Fatalf("appending to frame %d reached frame %d", i, i+1)
		}
	}
	if a, b := p.Frame(1), p.Frame(1); a == b {
		t.Fatal("two frames share one header")
	}
}
