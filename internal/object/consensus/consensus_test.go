package consensus

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestBaseFirstProposalWins(t *testing.T) {
	b := NewBase()
	if b.decided.Load() != nil {
		t.Fatal("fresh base already decided")
	}
	d, err := b.Propose(5)
	if err != nil || d != 5 {
		t.Fatalf("first propose = %v, %v", d, err)
	}
	d, err = b.Propose(9)
	if err != nil || d != 5 {
		t.Fatalf("second propose = %v, %v, want 5", d, err)
	}
	if p := b.decided.Load(); p == nil || *p != 5 {
		t.Fatalf("decided = %v", p)
	}
}

func TestBaseConcurrentAgreement(t *testing.T) {
	b := NewBase()
	const procs = 16
	out := make([]int64, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := b.Propose(int64(i + 100))
			if err != nil {
				t.Errorf("propose: %v", err)
				return
			}
			out[i] = d
		}()
	}
	wg.Wait()
	for i := 1; i < procs; i++ {
		if out[i] != out[0] {
			t.Fatalf("agreement violated: %v", out)
		}
	}
	if out[0] < 100 || out[0] >= 100+procs {
		t.Fatalf("validity violated: decided %d", out[0])
	}
}

func TestBaseCrashStyles(t *testing.T) {
	b := NewBase()
	b.CrashResponsive()
	if _, err := b.Propose(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("responsive crash: %v", err)
	}
	nb := NewBase()
	nb.CrashNonResponsive()
	done := make(chan struct{})
	go func() { nb.Propose(1); close(done) }() //nolint:errcheck
	select {
	case <-done:
		t.Fatal("propose on non-responsive base returned")
	case <-time.After(30 * time.Millisecond):
	}
	nb.Release()
	<-done
}

func TestResponsiveNoFailures(t *testing.T) {
	c, _ := NewResponsive(2)
	if len(c.bases) != 3 {
		t.Fatalf("%d base objects, want t+1 = 3", len(c.bases))
	}
	d, err := c.Propose(7)
	if err != nil || d != 7 {
		t.Fatalf("solo propose = %v, %v", d, err)
	}
	d, err = c.Propose(9)
	if err != nil || d != 7 {
		t.Fatalf("later propose = %v, %v, want 7 (agreement)", d, err)
	}
}

// The classic danger scenario: an object decides for one process, then
// crashes before answering another. The traversal must still converge.
func TestResponsiveCrashBetweenAccesses(t *testing.T) {
	c, bases := NewResponsive(1) // objects o0, o1
	// p proposes a=10: o0 decides 10 for p; o1 decides 10.
	if d, err := c.Propose(10); err != nil || d != 10 {
		t.Fatalf("p: %v, %v", d, err)
	}
	// o0 crashes before q's access.
	bases[0].CrashResponsive()
	// q proposes 20: gets error at o0 (keeps 20), then o1 answers 10.
	d, err := c.Propose(20)
	if err != nil || d != 10 {
		t.Fatalf("q decided %v, %v; agreement violated", d, err)
	}
}

func TestResponsiveConcurrentAgreementUnderCrashes(t *testing.T) {
	const tol = 3
	const procs = 12
	c, bases := NewResponsive(tol)
	// t of t+1 objects crash at staggered points mid-run.
	bases[0].CrashAfter(3, true)
	bases[1].CrashAfter(7, true)
	bases[3].CrashAfter(11, true)
	out := make([]int64, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = c.Propose(int64(1000 + i))
		}()
	}
	wg.Wait()
	for i := 0; i < procs; i++ {
		if errs[i] != nil {
			t.Fatalf("proc %d: %v", i, errs[i])
		}
		if out[i] != out[0] {
			t.Fatalf("agreement violated under crashes: %v", out)
		}
	}
	if out[0] < 1000 || out[0] >= 1000+procs {
		t.Fatalf("validity violated: %d", out[0])
	}
}

// Randomized schedules: repeat agreement checks across many staggered
// crash patterns (still <= t crashes).
func TestResponsiveAgreementRandomizedCrashes(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		const tol = 2
		const procs = 6
		c, bases := NewResponsive(tol)
		for k := 0; k < tol; k++ {
			bases[r.Intn(tol+1)].CrashAfter(int64(1+r.Intn(10)), true)
		}
		out := make([]int64, procs)
		var wg sync.WaitGroup
		for i := 0; i < procs; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := c.Propose(int64(trial*100 + i))
				if err != nil {
					t.Errorf("trial %d proc %d: %v", trial, i, err)
					return
				}
				out[i] = d
			}()
		}
		wg.Wait()
		for i := 1; i < procs; i++ {
			if out[i] != out[0] {
				t.Fatalf("trial %d: agreement violated: %v", trial, out)
			}
		}
	}
}

func TestResponsiveAllCrashed(t *testing.T) {
	c, bases := NewResponsive(1)
	for _, b := range bases {
		b.CrashResponsive()
	}
	d, err := c.Propose(42)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("propose with all bases crashed: %v", err)
	}
	if d != 42 {
		t.Fatalf("estimate under total failure = %d, want own proposal", d)
	}
}

// The impossibility witness: under a non-responsive crash the traversal
// blocks forever — and no alternative object consultation could preserve
// agreement, which is why no wait-free construction exists in this model.
func TestResponsiveBlocksOnNonResponsiveCrash(t *testing.T) {
	c, bases := NewResponsive(1)
	bases[0].CrashNonResponsive()
	defer bases[0].Release()
	done := make(chan struct{})
	go func() { c.Propose(1); close(done) }() //nolint:errcheck
	select {
	case <-done:
		t.Fatal("traversal returned despite a non-responsive base crash")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"negative t": func() { NewResponsive(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestResponsiveFromSharedOrder(t *testing.T) {
	// Two Responsive values over the SAME base objects in the same order
	// must agree with each other (it is the object order that matters).
	c1, _ := NewResponsive(2)
	c2 := &Responsive{bases: c1.bases}
	d1, err1 := c1.Propose(1)
	d2, err2 := c2.Propose(2)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Fatalf("cross-instance agreement violated: %v/%v, %v/%v", d1, err1, d2, err2)
	}
}

func BenchmarkBasePropose(b *testing.B) {
	base := NewBase()
	for i := 0; i < b.N; i++ {
		_, _ = base.Propose(int64(i))
	}
}

func BenchmarkResponsivePropose(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, _ := NewResponsive(2)
		_, _ = c.Propose(int64(i))
	}
}
