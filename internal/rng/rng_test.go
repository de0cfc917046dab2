package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 1000", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams start identically")
	}
	// Splitting with the same label from identically-advanced parents must
	// be reproducible.
	p1, p2 := New(9), New(9)
	if p1.Split(5).Uint64() != p2.Split(5).Uint64() {
		t.Fatal("Split is not deterministic")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < draws/10-1000 || c > draws/10+1000 {
			t.Errorf("Intn(10) value %d drawn %d times, want ~%d", v, c, draws/10)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	if err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const rate, n = 2.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp(%v) mean = %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(17)
	const xm, alpha = 1.0, 2.0
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto sample %v below scale %v", v, xm)
		}
		if v > 10 {
			over++
		}
	}
	// P(X > 10) = (xm/10)^alpha = 0.01.
	frac := float64(over) / n
	if frac < 0.005 || frac > 0.02 {
		t.Errorf("Pareto tail fraction = %v, want ~0.01", frac)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	const mean, sd, n = 5.0, 2.0, 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.05 {
		t.Errorf("Norm mean = %v, want ~%v", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~%v", math.Sqrt(variance), sd)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(29)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed multiset: %v", s)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf rank %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	if counts[0] <= 5*counts[99] {
		t.Errorf("Zipf tail too heavy: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(r, 0, 1) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestParetoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto(0,1) did not panic")
		}
	}()
	New(1).Pareto(0, 1)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Intn(1000)
	}
}

// TestMix64 pins the finalizer to the published splitmix64 stream: seeded
// with 0, the generator's k-th output is Mix64(k * 0x9e3779b97f4a7c15).
func TestMix64(t *testing.T) {
	if got := Mix64(0); got != 0 {
		t.Errorf("Mix64(0) = %#x, want 0", got)
	}
	var sm uint64
	for k, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec} {
		sm += 0x9e3779b97f4a7c15
		if got := Mix64(sm); got != want {
			t.Errorf("output %d: Mix64(%#x) = %#x, want %#x", k+1, sm, got, want)
		}
	}
}
