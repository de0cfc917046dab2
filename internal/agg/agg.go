// Package agg provides the mergeable aggregation states that One-Time
// Query protocols compute over member values.
//
// A State is a commutative-monoid summary (count, sum, min, max): states
// merge associatively and commutatively with Empty as identity, so any
// relay order over any spanning structure yields the same summary. All
// standard aggregates of the paper's canonical problem (count, sum,
// minimum, maximum, mean, boolean or) are read out of the one State type,
// which keeps protocol message formats uniform.
package agg

import (
	"fmt"
	"math"
)

// Kind selects which aggregate to read out of a State.
type Kind uint8

// Supported aggregates.
const (
	Count Kind = iota
	Sum
	Min
	Max
	Mean
	// Or reads as 1 if any contributed value is non-zero, else 0.
	Or
)

// String returns the aggregate name.
func (k Kind) String() string {
	names := [...]string{"count", "sum", "min", "max", "mean", "or"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// State is a mergeable aggregation summary. The zero State is NOT the
// monoid identity (its Min/Max are 0); use Empty.
type State struct {
	Count    float64
	Sum      float64
	Min, Max float64
	NonZero  bool
}

// Empty is the monoid identity: no contributions.
var Empty = State{Min: math.Inf(1), Max: math.Inf(-1)}

// Of returns the State of a single contribution v.
func Of(v float64) State {
	return State{Count: 1, Sum: v, Min: v, Max: v, NonZero: v != 0}
}

// Merge combines two summaries.
func (s State) Merge(t State) State {
	return State{
		Count:   s.Count + t.Count,
		Sum:     s.Sum + t.Sum,
		Min:     math.Min(s.Min, t.Min),
		Max:     math.Max(s.Max, t.Max),
		NonZero: s.NonZero || t.NonZero,
	}
}

// Result reads the aggregate k out of the summary. Reading Min/Max/Mean
// of an empty summary returns NaN (there is no such value).
func (s State) Result(k Kind) float64 {
	switch k {
	case Count:
		return s.Count
	case Sum:
		return s.Sum
	case Min:
		if s.Count == 0 {
			return math.NaN()
		}
		return s.Min
	case Max:
		if s.Count == 0 {
			return math.NaN()
		}
		return s.Max
	case Mean:
		if s.Count == 0 {
			return math.NaN()
		}
		return s.Sum / s.Count
	case Or:
		if s.NonZero {
			return 1
		}
		return 0
	default:
		return math.NaN()
	}
}
