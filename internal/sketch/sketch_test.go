package sketch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(32)
	if !s.IsEmpty() {
		t.Fatal("fresh sketch not empty")
	}
	if got := s.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %v", got)
	}
	if len(s.rows) != 32 || s.Words() != 32 {
		t.Fatalf("rows/Words = %d/%d", len(s.rows), s.Words())
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAccuracyAcrossScales(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000} {
		s := New(64)
		for i := 0; i < n; i++ {
			s.Add(uint64(i) * 2654435761)
		}
		est := s.Estimate()
		rel := math.Abs(est-float64(n)) / float64(n)
		if rel > 0.35 {
			t.Errorf("n=%d: estimate %.0f, relative error %.2f > 0.35", n, est, rel)
		}
	}
}

func TestDuplicateInsensitive(t *testing.T) {
	s := New(32)
	for i := 0; i < 100; i++ {
		s.Add(uint64(i))
	}
	before := s.Clone()
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			s.Add(uint64(i))
		}
	}
	if !s.Equal(before) {
		t.Fatal("re-adding items changed the sketch")
	}
}

func TestMergeIsSetUnion(t *testing.T) {
	a, b, both := New(64), New(64), New(64)
	for i := 0; i < 300; i++ {
		a.Add(uint64(i))
		both.Add(uint64(i))
	}
	for i := 200; i < 500; i++ { // overlap 200..299
		b.Add(uint64(i))
		both.Add(uint64(i))
	}
	a.Merge(b)
	if !a.Equal(both) {
		t.Fatal("merge differs from direct union")
	}
}

func TestMergeProperties(t *testing.T) {
	mk := func(seed uint8, n int) *FM {
		s := New(16)
		for i := 0; i < n; i++ {
			s.Add(uint64(seed)<<32 | uint64(i))
		}
		return s
	}
	if err := quick.Check(func(x, y, z uint8) bool {
		a, b, c := mk(x, int(x)%20+1), mk(y, int(y)%20+1), mk(z, int(z)%20+1)
		// Commutative.
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// Associative.
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}
		// Idempotent.
		aa := a.Clone()
		aa.Merge(a)
		return aa.Equal(a)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	New(8).Merge(New(16))
}

func TestCloneIndependent(t *testing.T) {
	s := New(8)
	s.Add(1)
	c := s.Clone()
	c.Add(999)
	if s.Equal(c) {
		t.Fatal("mutating clone affected original")
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(64)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkMerge(b *testing.B) {
	s, t2 := New(64), New(64)
	for i := 0; i < 1000; i++ {
		t2.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge(t2)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := New(64)
	for i := 0; i < 5000; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Estimate()
	}
}
