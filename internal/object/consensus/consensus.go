// Package consensus builds a reliable consensus object out of unreliable
// ones — the second half of the self-implementation programme (Guerraoui
// & Raynal, same proceedings) underlying the paper's "what can be
// computed" substrate.
//
// In the responsive-crash model, a t-tolerant wait-free self-
// implementation exists from t+1 base consensus objects: every process
// traverses the objects in the same fixed order, proposing its current
// estimate and adopting each answer. Once some never-crashing object o_k
// has answered everyone (at most t of t+1 can crash), every later
// proposal carries o_k's decision, so all estimates converge to it —
// Agreement; estimates are always someone's proposal — Validity; the
// traversal is a bounded loop — wait-freedom.
//
// In the non-responsive-crash model no wait-free self-implementation
// exists, no matter how many base objects are used: a process cannot
// distinguish a crashed object from a slow one, and consulting a
// different object can break Agreement. The test suite witnesses the
// blocking behaviour.
//
// This package runs on real goroutines and sync/atomic, like
// internal/object/register.
package consensus

import (
	"fmt"
	"sync/atomic"

	"repro/internal/object/objfail"
)

// ErrCrashed is returned by crashed base objects, and by the reliable
// construction when every base object crashed (tolerance exceeded); the
// accompanying value is then only the caller's own estimate and carries
// no agreement guarantee.
var ErrCrashed = objfail.ErrCrashed

// Object is the consensus API: Propose returns the decided value, which
// is the proposal of some process (possibly another one).
type Object interface {
	Propose(v int64) (int64, error)
}

// Base is an unreliable one-shot consensus object with crash injection:
// the first proposal wins. Construct with NewBase.
type Base struct {
	objfail.Injector
	decided atomic.Pointer[int64]
}

// NewBase returns a healthy, undecided base consensus object.
func NewBase() *Base { return &Base{} }

// Propose implements Object: the first value proposed to a healthy base
// object is decided and returned to every proposer.
func (b *Base) Propose(v int64) (int64, error) {
	if err := b.Enter(); err != nil {
		return 0, err
	}
	val := v
	if b.decided.CompareAndSwap(nil, &val) {
		return v, nil
	}
	return *b.decided.Load(), nil
}

var _ Object = (*Base)(nil)

// Responsive is the t-tolerant wait-free consensus self-implementation
// for the responsive-crash model: t+1 base objects traversed in a fixed
// order by every process.
type Responsive struct {
	bases []Object
}

// NewResponsive builds the construction over t+1 fresh base objects and
// returns them for crash injection. t must be >= 0.
func NewResponsive(t int) (*Responsive, []*Base) {
	if t < 0 {
		panic("consensus: negative t")
	}
	bases := make([]*Base, t+1)
	objs := make([]Object, t+1)
	for i := range bases {
		bases[i] = NewBase()
		objs[i] = bases[i]
	}
	return &Responsive{bases: objs}, bases
}

// Propose runs the traversal. With at most t responsive crashes it
// returns the agreed decision; if every base object crashed it returns
// the caller's estimate together with ErrCrashed.
func (c *Responsive) Propose(v int64) (int64, error) {
	est := v
	ok := 0
	for _, o := range c.bases {
		if d, err := o.Propose(est); err == nil {
			est = d
			ok++
		}
	}
	if ok == 0 {
		return est, fmt.Errorf("all %d base objects crashed: %w", len(c.bases), ErrCrashed)
	}
	return est, nil
}

var _ Object = (*Responsive)(nil)
