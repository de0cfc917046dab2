package register

import (
	"fmt"
	"sync/atomic"
)

// NonResponsive is the t-tolerant reliable register for the
// non-responsive-crash model. A crashed base register never answers, so
// sequential access would block forever; instead every operation is
// issued to all 2t+1 base registers in parallel and completes after a
// majority (t+1) of successes — which at most t silent crashes cannot
// prevent. Any two majorities intersect, so a read's majority contains at
// least one register holding the freshest completed write.
//
// Operations spawned toward non-responsive registers linger (they never
// return); that is the model, not a leak — tests Release them.
type NonResponsive struct {
	bases []Register
	t     int
	seq   atomic.Uint64
}

// NewNonResponsive builds the construction over 2t+1 fresh base registers
// and returns them for crash injection. t must be >= 0.
func NewNonResponsive(t int) (*NonResponsive, []*Base) {
	if t < 0 {
		panic("register: negative t")
	}
	n := 2*t + 1
	bases := make([]*Base, n)
	regs := make([]Register, n)
	for i := range bases {
		bases[i] = NewBase()
		regs[i] = bases[i]
	}
	return &NonResponsive{bases: regs, t: t}, bases
}

type readResult struct {
	tv  TimestampedValue
	err error
}

// Write stores data under a fresh sequence number in a majority of base
// registers. It returns once t+1 base writes succeeded, and fails with
// ErrCrashed when more than t base registers answered with failures
// (responsive crashes beyond the tolerance).
func (r *NonResponsive) Write(data int64) error {
	tv := TimestampedValue{Seq: r.seq.Add(1), Data: data}
	results := make(chan error, len(r.bases))
	for _, b := range r.bases {
		b := b
		go func() { results <- b.Write(tv) }()
	}
	return r.await(results, "write")
}

// await collects responses until a majority succeeded or too many failed.
func (r *NonResponsive) await(results chan error, op string) error {
	need := r.t + 1
	ok, failed := 0, 0
	for ok < need {
		if err := <-results; err == nil {
			ok++
		} else {
			failed++
			if failed > r.t {
				return fmt.Errorf("%s saw %d base failures (tolerance %d): %w", op, failed, r.t, ErrCrashed)
			}
		}
	}
	return nil
}

// NRReader is a reading handle over the non-responsive construction; as
// with Responsive readers it carries the per-handle monotone cache.
type NRReader struct {
	reg  *NonResponsive
	last TimestampedValue
}

// NewReader returns a fresh reading handle.
func (r *NonResponsive) NewReader() *NRReader { return &NRReader{reg: r} }

// Read returns the freshest value found in a majority of base registers,
// never older than what this handle returned before.
func (rd *NRReader) Read() (int64, error) {
	results := make(chan readResult, len(rd.reg.bases))
	for _, b := range rd.reg.bases {
		b := b
		go func() {
			tv, err := b.Read()
			results <- readResult{tv: tv, err: err}
		}()
	}
	need := rd.reg.t + 1
	best := rd.last
	ok, failed := 0, 0
	for ok < need {
		res := <-results
		if res.err != nil {
			failed++
			if failed > rd.reg.t {
				return 0, fmt.Errorf("read saw %d base failures (tolerance %d): %w", failed, rd.reg.t, ErrCrashed)
			}
			continue
		}
		ok++
		if res.tv.Seq > best.Seq {
			best = res.tv
		}
	}
	rd.last = best
	return best.Data, nil
}
