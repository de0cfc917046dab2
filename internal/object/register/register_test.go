package register

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBaseReadWrite(t *testing.T) {
	b := NewBase()
	if tv, err := b.Read(); err != nil || tv.Seq != 0 {
		t.Fatalf("fresh base read = %+v, %v", tv, err)
	}
	if err := b.Write(TimestampedValue{Seq: 3, Data: 42}); err != nil {
		t.Fatal(err)
	}
	tv, err := b.Read()
	if err != nil || tv.Data != 42 || tv.Seq != 3 {
		t.Fatalf("base read = %+v, %v", tv, err)
	}
}

func TestBaseResponsiveCrash(t *testing.T) {
	b := NewBase()
	b.CrashResponsive()
	if !b.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if err := b.Write(TimestampedValue{Seq: 1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write on crashed base: %v", err)
	}
	if _, err := b.Read(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed base: %v", err)
	}
}

func TestBaseNonResponsiveCrashBlocks(t *testing.T) {
	b := NewBase()
	b.CrashNonResponsive()
	done := make(chan error, 1)
	go func() { _, err := b.Read(); done <- err }()
	select {
	case err := <-done:
		t.Fatalf("read on non-responsive base returned: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	b.Release()
	if err := <-done; !errors.Is(err, ErrCrashed) {
		t.Fatalf("released read: %v", err)
	}
}

func TestBaseCrashAfter(t *testing.T) {
	b := NewBase()
	b.CrashAfter(2, true)
	if err := b.Write(TimestampedValue{Seq: 1}); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := b.Read(); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if _, err := b.Read(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3 should crash, got %v", err)
	}
}

func TestResponsiveBasic(t *testing.T) {
	r, _ := NewResponsive(2)
	if len(r.bases) != 3 {
		t.Fatalf("%d base registers, want t+1 = 3", len(r.bases))
	}
	rd := r.NewReader()
	if v, err := rd.Read(); err != nil || v != 0 {
		t.Fatalf("initial read = %v, %v", v, err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := r.Write(i * 11); err != nil {
			t.Fatal(err)
		}
		if v, err := rd.Read(); err != nil || v != i*11 {
			t.Fatalf("read after write %d = %v, %v", i, v, err)
		}
	}
}

func TestResponsiveSurvivesTCrashes(t *testing.T) {
	const tol = 3
	r, bases := NewResponsive(tol)
	if err := r.Write(7); err != nil {
		t.Fatal(err)
	}
	// Crash t of t+1 base registers.
	for i := 0; i < tol; i++ {
		bases[i].CrashResponsive()
	}
	if err := r.Write(8); err != nil {
		t.Fatalf("write with t crashes: %v", err)
	}
	rd := r.NewReader()
	if v, err := rd.Read(); err != nil || v != 8 {
		t.Fatalf("read with t crashes = %v, %v", v, err)
	}
}

func TestResponsiveFailsBeyondTolerance(t *testing.T) {
	r, bases := NewResponsive(1)
	for _, b := range bases {
		b.CrashResponsive()
	}
	if err := r.Write(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write with t+1 crashes: %v", err)
	}
	rd := r.NewReader()
	if _, err := rd.Read(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read with t+1 crashes: %v", err)
	}
}

// The new/old inversion scenario: base 0 holds the new value and crashes;
// a per-handle cache must keep the reader from going back in time.
func TestResponsiveReaderMonotoneUnderPartialWrite(t *testing.T) {
	r, bases := NewResponsive(1)
	b0 := bases[0]
	if err := r.Write(1); err != nil { // seq 1 everywhere
		t.Fatal(err)
	}
	// Simulate a partial second write: only base 0 has seq 2.
	if err := b0.Write(TimestampedValue{Seq: 2, Data: 2}); err != nil {
		t.Fatal(err)
	}
	rd := r.NewReader()
	if v, _ := rd.Read(); v != 2 {
		t.Fatalf("read = %v, want 2", v)
	}
	b0.CrashResponsive()
	// Only base 1 (seq 1) is left; the handle must not regress to 1.
	if v, err := rd.Read(); err != nil || v != 2 {
		t.Fatalf("read after crash = %v, %v; new/old inversion", v, err)
	}
	// A FRESH handle legitimately sees the old value — that is exactly
	// why atomicity is per handle.
	if v, _ := r.NewReader().Read(); v != 1 {
		t.Fatalf("fresh handle read = %v, want 1", v)
	}
}

func TestResponsiveConcurrentReadersMonotone(t *testing.T) {
	r, bases := NewResponsive(2)
	// Crash one base mid-run, non-fatally.
	bases[1].CrashAfter(500, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer
		defer wg.Done()
		for i := int64(1); i <= 2000; i++ {
			if err := r.Write(i); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := r.NewReader()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rd.Read()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if v < last {
					t.Errorf("reader regressed: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
}

func TestNonResponsiveBasic(t *testing.T) {
	r, _ := NewNonResponsive(2)
	if r.t != 2 || len(r.bases) != 5 {
		t.Fatalf("t = %d over %d base registers, want 2 over 2t+1 = 5", r.t, len(r.bases))
	}
	rd := r.NewReader()
	for i := int64(1); i <= 5; i++ {
		if err := r.Write(i); err != nil {
			t.Fatal(err)
		}
		if v, err := rd.Read(); err != nil || v != i {
			t.Fatalf("read = %v, %v, want %d", v, err, i)
		}
	}
}

func TestNonResponsiveSurvivesTSilentCrashes(t *testing.T) {
	const tol = 2
	r, bases := NewNonResponsive(tol)
	for i := 0; i < tol; i++ {
		bases[i].CrashNonResponsive()
	}
	defer func() {
		for i := 0; i < tol; i++ {
			bases[i].Release()
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := r.Write(9); err != nil {
			t.Errorf("write with %d silent crashes: %v", tol, err)
			return
		}
		rd := r.NewReader()
		if v, err := rd.Read(); err != nil || v != 9 {
			t.Errorf("read with %d silent crashes = %v, %v", tol, v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("majority construction blocked despite <= t silent crashes (not wait-free)")
	}
}

// The impossibility witness: with only t+1 base registers (no majority
// margin), a single non-responsive crash blocks the sequential
// construction forever.
func TestSequentialBlocksOnNonResponsiveCrash(t *testing.T) {
	r, bases := NewResponsive(1) // t = 1 would need majority machinery
	b0 := bases[0]
	b0.CrashNonResponsive()
	defer b0.Release()
	done := make(chan struct{})
	go func() {
		_ = r.Write(5) // blocks inside base 0
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("sequential construction returned despite a non-responsive crash")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestNonResponsiveFailsBeyondResponsiveTolerance(t *testing.T) {
	r, bases := NewNonResponsive(1) // 3 bases
	bases[0].CrashResponsive()
	bases[1].CrashResponsive()
	if err := r.Write(1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write with t+1 responsive crashes: %v", err)
	}
	rd := r.NewReader()
	if _, err := rd.Read(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read with t+1 responsive crashes: %v", err)
	}
}

func TestNonResponsiveConcurrentStress(t *testing.T) {
	r, bases := NewNonResponsive(2)
	bases[4].CrashNonResponsive()
	defer bases[4].Release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); i <= 300; i++ {
			if err := r.Write(i); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := r.NewReader()
			last := int64(-1)
			for i := 0; i < 300; i++ {
				v, err := rd.Read()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if v < last {
					t.Errorf("reader regressed: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	wg.Wait()
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"responsive negative t":     func() { NewResponsive(-1) },
		"non-responsive negative t": func() { NewNonResponsive(-1) },
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

func BenchmarkResponsiveWrite(b *testing.B) {
	r, _ := NewResponsive(2)
	for i := 0; i < b.N; i++ {
		_ = r.Write(int64(i))
	}
}

func BenchmarkNonResponsiveWrite(b *testing.B) {
	r, _ := NewNonResponsive(2)
	for i := 0; i < b.N; i++ {
		_ = r.Write(int64(i))
	}
}

func BenchmarkResponsiveRead(b *testing.B) {
	r, _ := NewResponsive(2)
	_ = r.Write(1)
	rd := r.NewReader()
	for i := 0; i < b.N; i++ {
		_, _ = rd.Read()
	}
}
