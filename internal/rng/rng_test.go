package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	ShuffleSlice(r, s)
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("ShuffleSlice changed multiset: %v", s)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
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

func BenchmarkShuffleSlice4000(b *testing.B) {
	r := New(1)
	s := make([]int64, 4000)
	for i := range s {
		s[i] = int64(i)
	}
	for i := 0; i < b.N; i++ {
		ShuffleSlice(r, s)
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

// drawBounds are the Intn bounds TestDrawsGolden pins. The large ones
// reject often: 2⁶²+1 about one draw in four, and ⌊2⁶⁴/3⌋+1 (the int
// bound that rejects most, since 2⁶³+1 does not fit an int) about one in
// three, so their digests pin the rejection branch as well.
var drawBounds = []int{1, 2, 3, 7, 1<<31 + 1, 1<<62 + 1, math.MaxUint64/3 + 1, math.MaxInt}

// permLens are the lengths TestDrawsGolden pins Perm, PermInto and the
// shuffle at: the degenerate ones and a random-k join's member count.
var permLens = []int{0, 1, 2, 5, 4000}

// drawsDigest hashes, for seeds 1–8, what draw makes of a fresh
// generator followed by that generator's next Uint64, so a change that
// keeps the outputs but consumes the stream differently shows too.
func drawsDigest(draw func(r *Rand, out []uint64) []uint64) string {
	h := sha256.New()
	var out []uint64
	var b []byte
	for seed := uint64(1); seed <= 8; seed++ {
		r := New(seed)
		out = append(draw(r, out[:0]), r.Uint64())
		b = b[:0]
		for _, v := range out {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendInts(out []uint64, p []int) []uint64 {
	for _, v := range p {
		out = append(out, uint64(v))
	}
	return out
}

// TestDrawsGolden pins the exact draws of Intn, Perm, PermInto and the
// slice shuffle: random-k overlays, walk fan-outs and every experiment
// table replay only if these stay bit-identical.
func TestDrawsGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(r *Rand, out []uint64) []uint64
		want string
	}{
		{"Intn", func(r *Rand, out []uint64) []uint64 {
			for _, n := range drawBounds {
				for i := 0; i < 64; i++ {
					out = append(out, uint64(r.Intn(n)))
				}
			}
			return out
		}, "096e48c9f04517ec2d1a151c28ed1b1df12c3ee8f7611e6394b6565a2d7a212c"},
		{"Perm", func(r *Rand, out []uint64) []uint64 {
			for _, n := range permLens {
				out = appendInts(out, r.Perm(n))
			}
			return out
		}, "b9e237c9c262c1583d93e0ec0c3432f6bd277accc0cef231f75a1cc1a33cf917"},
		{"PermInto", func(r *Rand, out []uint64) []uint64 {
			for _, n := range permLens {
				p := make([]int, n)
				r.PermInto(p)
				out = appendInts(out, p)
			}
			return out
		}, "b9e237c9c262c1583d93e0ec0c3432f6bd277accc0cef231f75a1cc1a33cf917"},
		{"Shuffle", func(r *Rand, out []uint64) []uint64 {
			for _, n := range permLens {
				s := make([]int, n)
				for i := range s {
					s[i] = i
				}
				ShuffleSlice(r, s)
				out = appendInts(out, s)
			}
			return out
		}, "96947964059f435af71481d3ba861512ff14ba3dfa5f3e50b357bf597ffedd83"},
	} {
		if got := drawsDigest(c.draw); got != c.want {
			t.Errorf("%s draws digest %s, pinned %s", c.name, got, c.want)
		}
	}
}

// refShuffle is the closure shuffle ShuffleSlice replaced, kept as its
// reference: a swap call per step, each index drawn by Lemire's method
// through Uint64 with the 128-bit product computed in software.
func refShuffle(r *Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, refIntn(r, i+1))
	}
}

func refIntn(r *Rand, n int) int {
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := refMul64(v, un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

func refMul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// TestShuffleSliceMatchesReference: ShuffleSlice makes the reference's
// draws and swaps at every length 0–300 and at 4 000, over several
// seeds, and leaves the generator where the reference leaves it.
func TestShuffleSliceMatchesReference(t *testing.T) {
	lens := make([]int, 0, 302)
	for n := 0; n <= 300; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 4000)
	for seed := uint64(1); seed <= 4; seed++ {
		got, ref := New(seed), New(seed)
		for _, n := range lens {
			a, b := make([]int, n), make([]int, n)
			for i := range a {
				a[i], b[i] = i, i
			}
			ShuffleSlice(got, a)
			refShuffle(ref, n, func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d n=%d: ShuffleSlice = %v, reference %v", seed, n, a, b)
				}
			}
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d n=%d: next Uint64 %#x, reference %#x", seed, n, g, w)
			}
		}
	}
}

// TestIntnMatchesReference: Intn's hardware multiply draws what the
// software one drew, at every pinned bound, and the large bounds do take
// the rejection branch (the reference consumes more than one Uint64 per
// result there).
func TestIntnMatchesReference(t *testing.T) {
	for _, n := range drawBounds {
		got, ref, probe := New(uint64(n)), New(uint64(n)), New(uint64(n))
		rejected := 0
		for i := 0; i < 4096; i++ {
			if g, w := got.Intn(n), refIntn(ref, n); g != w {
				t.Fatalf("Intn(%d) draw %d = %d, reference %d", n, i, g, w)
			}
			if got.s != ref.s {
				t.Fatalf("Intn(%d) draw %d left the generator elsewhere than the reference", n, i)
			}
			probe.Uint64()
			for probe.s != ref.s {
				probe.Uint64()
				rejected++
			}
		}
		if n > 1<<62 && n != math.MaxInt && rejected == 0 {
			t.Errorf("Intn(%d): no draw rejected in 4096", n)
		}
	}
}
