package agg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func statesEqual(a, b State) bool {
	feq := func(x, y float64) bool {
		if x == y {
			return true // covers equal infinities too
		}
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		return math.Abs(x-y) <= 1e-9*scale
	}
	return feq(a.Count, b.Count) && feq(a.Sum, b.Sum) && feq(a.Min, b.Min) &&
		feq(a.Max, b.Max) && a.NonZero == b.NonZero
}

func TestEmptyIsIdentity(t *testing.T) {
	if err := quick.Check(func(v float64) bool {
		s := Of(v)
		return statesEqual(s.Merge(Empty), s) && statesEqual(Empty.Merge(s), s)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeCommutative(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		return statesEqual(Of(a).Merge(Of(b)), Of(b).Merge(Of(a)))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeAssociative(t *testing.T) {
	if err := quick.Check(func(a, b, c float64) bool {
		x := Of(a).Merge(Of(b)).Merge(Of(c))
		y := Of(a).Merge(Of(b).Merge(Of(c)))
		return statesEqual(x, y)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMergeOrderIrrelevance(t *testing.T) {
	// Fold in two different shuffled orders; summaries must agree.
	r := rng.New(4)
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = r.Norm(0, 100)
	}
	fold := func(order []int) State {
		s := Empty
		for _, i := range order {
			s = s.Merge(Of(vals[i]))
		}
		return s
	}
	a := fold(r.Perm(len(vals)))
	b := fold(r.Perm(len(vals)))
	if !statesEqual(a, b) {
		t.Fatalf("order-dependent merge: %+v vs %+v", a, b)
	}
}

// OfAll folds a set of contributions into a State.
func OfAll(vs ...float64) State {
	s := Empty
	for _, v := range vs {
		s = s.Merge(Of(v))
	}
	return s
}

func TestResults(t *testing.T) {
	s := OfAll(3, -1, 4, 1, 5)
	cases := map[Kind]float64{
		Count: 5,
		Sum:   12,
		Min:   -1,
		Max:   5,
		Mean:  2.4,
		Or:    1,
	}
	for k, want := range cases {
		if got := s.Result(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("Result(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestOrAllZeros(t *testing.T) {
	s := OfAll(0, 0, 0)
	if got := s.Result(Or); got != 0 {
		t.Fatalf("Or over zeros = %v", got)
	}
	if s.Result(Count) != 3 {
		t.Fatalf("Count over zeros = %v", s.Result(Count))
	}
}

func TestEmptyResults(t *testing.T) {
	if Empty.Count != 0 {
		t.Fatal("Empty has contributions")
	}
	if Empty.Result(Count) != 0 || Empty.Result(Sum) != 0 {
		t.Fatal("empty count/sum not 0")
	}
	for _, k := range []Kind{Min, Max, Mean} {
		if !math.IsNaN(Empty.Result(k)) {
			t.Errorf("empty %v = %v, want NaN", k, Empty.Result(k))
		}
	}
	if Empty.Result(Or) != 0 {
		t.Fatal("empty or != 0")
	}
}

func TestSingleton(t *testing.T) {
	s := Of(-7)
	for _, k := range []Kind{Min, Max, Mean} {
		if got := s.Result(k); got != -7 {
			t.Errorf("singleton %v = %v", k, got)
		}
	}
	if s.Count == 0 {
		t.Fatal("singleton reported empty")
	}
}

func TestKindString(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range []Kind{Count, Sum, Min, Max, Mean, Or} {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
	if !math.IsNaN(Of(1).Result(Kind(99))) {
		t.Error("unknown kind should read NaN")
	}
}

func BenchmarkMerge(b *testing.B) {
	s, u := Of(1), Of(2)
	for i := 0; i < b.N; i++ {
		s = s.Merge(u)
	}
	_ = s
}
