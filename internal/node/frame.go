package node

import (
	"fmt"
	"math/bits"

	"repro/internal/pex"
)

// Frame is a wire payload drawn from its world's frame pool (see
// Proc.Frame): protocols that speak canonical bytes send a *Frame instead
// of a []byte, so boxing it into Message.Payload costs nothing. A frame
// is immutable once sent. Its fingerprint is the fingerprint of B, so a
// *Frame authenticates, signs and audits exactly as its bytes would.
//
// A pooled frame is recycled once nothing pins it (see pins), so a
// received frame is valid only until the Receive that got it returns; a
// behaviour may forward it from there, but must not keep it.
type Frame struct {
	B []byte
	pins
}

// PexExchange is the payload of one pex message: a push of wire-encoded
// records (a pex.EncodeRecords batch), optionally soliciting a pull reply.
// The records travel in canonical wire bytes (not as structs) so the
// codec is load-bearing on the runtime path — and so the poison clause
// must mutate them the way a real adversary would, by rewriting bytes.
// The pex sublayer draws every exchange it ships from its world's pool,
// pinned as a Frame is, so an exchange is valid only until the
// sublayer's onMessage for it returns.
type PexExchange struct {
	// Wire is the record batch.
	Wire []byte
	pins
	// Pull solicits a reply batch (the pushpull policy's second half).
	Pull bool
}

// pins is a pooled payload's lifetime. The creator holds a pin (held)
// from Proc.Frame, or from the pex sublayer's ship, until it releases the
// payload after its last Send; count is the number of scheduled delivery
// copies (World.schedule pins, fireDelivery unpins after the delivery
// returns) and live reliable trackings (pinned on tracking, unpinned when
// the record is recycled). Replays, duplicates and audit holds all go
// through World.schedule, so they pin too. The payload returns to its
// world's free list when the last pin drops. A payload that is not pooled
// (buf nil: built by hand, or too large for a pool class) is never
// counted nor recycled.
type pins struct {
	// buf is the pooled buffer the payload's bytes are a prefix of.
	buf   []byte
	count int32
	held  bool
}

// pin takes one copy's pin. Pinning a recycled payload is a
// use-after-release, and panics.
func (p *pins) pin() {
	if p.buf == nil {
		return
	}
	if p.count == 0 && !p.held {
		panic("node: a recycled frame was sent")
	}
	p.count++
}

// unpin drops one copy's pin and reports whether it was the payload's
// last.
func (p *pins) unpin() bool {
	if p.buf == nil {
		return false
	}
	if p.count == 0 {
		panic("node: a frame was unpinned more often than it was pinned")
	}
	p.count--
	return p.count == 0 && !p.held
}

// release drops the creator's pin and reports whether it was the last.
func (p *pins) release() bool {
	if !p.held {
		panic("node: a frame was released twice")
	}
	p.held = false
	return p.count == 0 && p.buf != nil
}

// Pool geometry. A byte chunk holds some 75 pex buffers or 128 of the
// smallest frame class, and a header chunk 128 headers: small enough that
// growth stays in few, rare allocations. Frame buffers come in
// power-of-two classes from frameMinClass to frameOwnAlloc bytes; a frame
// over frameOwnAlloc gets its own allocation and is never pooled, so a
// refill never orphans more than that much of a chunk's tail. Every
// exchange buffer is exchangeBuf bytes, the largest batch ship sends.
const (
	frameByteChunk = 8 << 10
	frameMinClass  = 64
	frameOwnAlloc  = frameByteChunk / 8
	frameClasses   = 5 // 64, 128, 256, 512, 1024
	frameHeadChunk = 128

	// recycledByte overwrites a recycled payload's bytes, so a reader that
	// kept one past its delivery fails to decode instead of reading the
	// next message's bytes or stale ones.
	recycledByte = 0xA5
)

// exchangeBuf is the size of every exchange buffer.
var exchangeBuf = pex.WireSize(pex.MaxFanout)

// framePool is a world's pool of wire payloads: per-class free lists of
// recycled frames and exchanges, grown by carving headers and buffers
// from chunks. A recycled payload keeps its buffer, so reuse allocates
// nothing; the pool holds at most as many payloads as were ever live at
// once.
type framePool struct {
	bytes     []byte        // the current byte chunk's uncarved tail
	frames    []Frame       // the current Frame chunk's uncarved tail
	exchanges []PexExchange // the current PexExchange chunk's uncarved tail

	freeFrames    [frameClasses][]*Frame
	freeExchanges []*PexExchange
}

// carve returns n fresh zeroed bytes with cap == len, so no append to
// one buffer can reach its neighbour.
func (a *framePool) carve(n int) []byte {
	if n > len(a.bytes) {
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

// pop takes the most recently freed payload off a free list, or nil.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// classOf is the index of the smallest frame class holding n bytes.
func classOf(n int) int { return bits.Len(uint(max(n, 1)-1) / frameMinClass) }

// frame hands out a held frame of n zeroed bytes with cap(B) == len(B).
func (a *framePool) frame(n int) *Frame {
	if n > frameOwnAlloc {
		return &Frame{B: make([]byte, n), pins: pins{held: true}}
	}
	c := classOf(n)
	f := pop(&a.freeFrames[c])
	if f == nil {
		f = take(&a.frames, frameHeadChunk)
		f.buf = a.carve(frameMinClass << c)
	} else {
		clear(f.buf[:n])
	}
	f.B, f.held = f.buf[:n:n], true
	return f
}

// exchange hands out a held exchange whose Wire is n zeroed bytes.
func (a *framePool) exchange(pull bool, n int) *PexExchange {
	if n > exchangeBuf {
		panic(fmt.Sprintf("node: a %d-byte exchange exceeds the %d-byte pool buffer", n, exchangeBuf))
	}
	ex := pop(&a.freeExchanges)
	if ex == nil {
		ex = take(&a.exchanges, frameHeadChunk)
		ex.buf = a.carve(exchangeBuf)
	} else {
		clear(ex.buf[:n])
	}
	ex.Wire, ex.held, ex.Pull = ex.buf[:n:n], true, pull
	return ex
}

// scrub overwrites a recycled buffer with recycledByte, doubling the
// filled prefix with each copy.
func scrub(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = recycledByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

func (a *framePool) recycleFrame(f *Frame) {
	scrub(f.buf)
	c := classOf(len(f.buf))
	a.freeFrames[c] = append(a.freeFrames[c], f)
}

func (a *framePool) recycleExchange(ex *PexExchange) {
	scrub(ex.buf)
	a.freeExchanges = append(a.freeExchanges, ex)
}

// pin takes one copy's pin on a pooled payload; any other payload is left
// alone.
func pin(payload any) {
	switch p := payload.(type) {
	case *Frame:
		p.pin()
	case *PexExchange:
		p.pin()
	}
}

// unpin drops one copy's pin, recycling a pooled payload with its last.
func (a *framePool) unpin(payload any) {
	switch p := payload.(type) {
	case *Frame:
		if p.unpin() {
			a.recycleFrame(p)
		}
	case *PexExchange:
		if p.unpin() {
			a.recycleExchange(p)
		}
	}
}

// Frame hands p an n-byte wire frame from the world's pool to fill and
// send. The bytes are zeroed and cap(B) == len(B). p holds the frame's
// creator pin: once sent the frame must not be written again, and after
// its last Send p hands the pin back with ReleaseFrame, so the frame can
// be recycled once every copy in flight has landed. A frame never
// released is never recycled.
func (p *Proc) Frame(n int) *Frame { return p.world.frames.frame(n) }

// ReleaseFrame drops the creator pin Frame handed out; f must not be
// touched again. Releasing a frame twice panics.
func (p *Proc) ReleaseFrame(f *Frame) {
	if f.release() {
		p.world.frames.recycleFrame(f)
	}
}

// releaseExchange drops the pex sublayer's creator pin on ex.
func (a *framePool) releaseExchange(ex *PexExchange) {
	if ex.release() {
		a.recycleExchange(ex)
	}
}
