package register

import (
	"fmt"
	"sync/atomic"
)

// Responsive is the t-tolerant reliable register for the responsive-crash
// model: t+1 base registers, accessed sequentially, of which at least one
// survives. It is single-writer; create one Reader handle per reading
// goroutine (reads are atomic per handle).
type Responsive struct {
	bases []Register
	seq   atomic.Uint64
}

// NewResponsive builds the construction over t+1 fresh base registers
// and returns them for crash injection. t must be >= 0.
func NewResponsive(t int) (*Responsive, []*Base) {
	if t < 0 {
		panic("register: negative t")
	}
	bases := make([]*Base, t+1)
	regs := make([]Register, t+1)
	for i := range bases {
		bases[i] = NewBase()
		regs[i] = bases[i]
	}
	return &Responsive{bases: regs}, bases
}

// Write stores data in every non-crashed base register under a fresh
// sequence number. It fails with ErrCrashed only when every base register
// has crashed (more failures than tolerated). Single writer: concurrent
// Writes are outside the construction's specification.
func (r *Responsive) Write(data int64) error {
	tv := TimestampedValue{Seq: r.seq.Add(1), Data: data}
	ok := 0
	for _, b := range r.bases {
		if err := b.Write(tv); err == nil {
			ok++
		}
	}
	if ok == 0 {
		return fmt.Errorf("write lost all %d base registers: %w", len(r.bases), ErrCrashed)
	}
	return nil
}

// Reader is a reading handle: it carries the monotone timestamp cache
// that makes reads atomic for this handle (no new/old inversion).
type Reader struct {
	reg  *Responsive
	last TimestampedValue
}

// NewReader returns a fresh reading handle.
func (r *Responsive) NewReader() *Reader { return &Reader{reg: r} }

// Read returns the freshest surviving value, never older than what this
// handle returned before. It fails with ErrCrashed only when every base
// register has crashed.
func (rd *Reader) Read() (int64, error) {
	best := rd.last
	ok := 0
	for _, b := range rd.reg.bases {
		tv, err := b.Read()
		if err != nil {
			continue
		}
		ok++
		if tv.Seq > best.Seq {
			best = tv
		}
	}
	if ok == 0 {
		return 0, fmt.Errorf("read lost all %d base registers: %w", len(rd.reg.bases), ErrCrashed)
	}
	rd.last = best
	return best.Data, nil
}
