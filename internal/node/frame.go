package node

import "repro/internal/pex"

// Frame is a wire payload carved from its world's frame arena (see
// Proc.Frame): protocols that speak canonical bytes send a *Frame instead
// of a []byte, so boxing it into Message.Payload costs nothing. A frame
// is immutable once sent. Its fingerprint is the fingerprint of B, so a
// *Frame authenticates, signs and audits exactly as its bytes would.
type Frame struct{ B []byte }

// Arena chunk sizes. A byte chunk holds some 75 tq or pex frames (about
// 110 bytes each) and a header chunk 128 headers: small enough that what
// a long-held message pins stays small, large enough that a refill is
// rare.
// A frame over frameOwnAlloc gets its own allocation, so a refill never
// orphans more than that much of a chunk's tail.
const (
	frameByteChunk = 8 << 10
	frameOwnAlloc  = frameByteChunk / 8
	frameHeadChunk = 128
)

// frameArena is a world's carve-only store of wire payloads. Carved
// pieces are never handed out twice and chunks are never recycled: a
// chunk lives exactly as long as some message still refers to it, which
// the garbage collector decides, so replayed, duplicated, held and forged
// copies need no lifetime bookkeeping. The cost of that is retention: one
// long-held message pins the one chunk of each kind it was carved from.
type frameArena struct {
	bytes     []byte         // the current byte chunk's uncarved tail
	frames    []Frame        // the current Frame chunk's uncarved tail
	exchanges []pex.Exchange // the current pex.Exchange chunk's uncarved tail
}

// carve returns n fresh zeroed bytes with cap == len, so no append to
// one frame can reach its neighbour.
func (a *frameArena) carve(n int) []byte {
	if n > len(a.bytes) {
		if n > frameOwnAlloc {
			return make([]byte, n)
		}
		a.bytes = make([]byte, frameByteChunk)
	}
	b := a.bytes[:n:n]
	a.bytes = a.bytes[n:]
	return b
}

// take carves one zero value from a typed chunk tail, refilling it with
// a fresh chunk of the given length when it runs out.
func take[T any](tail *[]T, chunk int) *T {
	if len(*tail) == 0 {
		*tail = make([]T, chunk)
	}
	x := &(*tail)[0]
	*tail = (*tail)[1:]
	return x
}

// frame carves a Frame of n bytes.
func (a *frameArena) frame(n int) *Frame {
	f := take(&a.frames, frameHeadChunk)
	f.B = a.carve(n)
	return f
}

// exchange carves a pex exchange whose Wire is n bytes.
func (a *frameArena) exchange(pull bool, n int) *pex.Exchange {
	ex := take(&a.exchanges, frameHeadChunk)
	ex.Pull, ex.Wire = pull, a.carve(n)
	return ex
}

// Frame carves an n-byte wire frame from the world's arena for p to fill
// and send. The bytes are zeroed and cap(B) == len(B); once sent the
// frame must not be written again, since copies of the message may still
// be in flight, held, or replayed.
func (p *Proc) Frame(n int) *Frame { return p.world.frames.frame(n) }
