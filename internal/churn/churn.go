// Package churn generates the membership dynamics of a run: who joins and
// leaves, when. It realizes the size dimension of the paper's
// classification — the infinite arrival models M^b (known concurrency
// bound), M^n (finite but unknown) and M^infinity (unbounded concurrency)
// — as lazy, deterministic event streams the simulator consumes.
//
// A Generator is an infinite (or quiescing) stream; callers bound it with
// a horizon. Arrival processes are Poisson; session lengths are
// exponential or fixed. Acceleration makes concurrency grow without bound,
// producing M^infinity runs on any finite horizon prefix.
package churn

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Time is virtual time in simulator ticks (aliases int64, matching
// core.Time).
type Time = int64

// Event is one membership change.
type Event struct {
	At   Time
	Join bool
	Node graph.NodeID
}

func (e Event) String() string {
	verb := "leave"
	if e.Join {
		verb = "join"
	}
	return fmt.Sprintf("t=%d %s %d", e.At, verb, e.Node)
}

// SessionDist samples a session length in ticks.
type SessionDist func(r *rng.Rand) Time

// ExpSessions returns exponentially distributed session lengths with the
// given mean (in ticks).
func ExpSessions(mean float64) SessionDist {
	if mean <= 0 {
		panic("churn: ExpSessions with non-positive mean")
	}
	return func(r *rng.Rand) Time { return ceilTime(r.Exp(1 / mean)) }
}

// FixedSessions returns constant session lengths.
func FixedSessions(d Time) SessionDist {
	if d <= 0 {
		panic("churn: FixedSessions with non-positive duration")
	}
	return func(*rng.Rand) Time { return d }
}

func ceilTime(f float64) Time {
	t := Time(math.Ceil(f))
	if t < 1 {
		t = 1
	}
	return t
}

// Config parameterizes a Generator. The zero value is not valid: Session
// must be set whenever churn is possible.
type Config struct {
	// InitialPopulation entities join at t=0.
	InitialPopulation int
	// ArrivalRate is the expected number of arrivals per tick (Poisson).
	// 0 means no arrivals after the initial population.
	ArrivalRate float64
	// Session samples how long an entity stays. Entities of the initial
	// population draw sessions too, unless Immortal is set.
	Session SessionDist
	// Immortal keeps the initial population in the system forever
	// (a "stable core"); only late arrivals churn.
	Immortal bool
	// MaxConcurrent caps simultaneous membership (the b of M^b). Arrivals
	// drawn while at capacity are deferred until a departure frees a slot.
	// 0 means no cap.
	MaxConcurrent int
	// DoubleEvery makes the arrival rate double every DoubleEvery ticks:
	// concurrency then grows without bound (M^infinity runs). 0 disables.
	DoubleEvery Time
	// QuiesceAt suppresses every event at or after this time: joins stop
	// and present entities stay forever, yielding an eventually-stable
	// run. 0 means never quiesce.
	QuiesceAt Time
	// RejoinProb makes each departing entity return later under the SAME
	// identity with this probability — churners rather than one-shot
	// visitors, the membership shape durable-identity experiments need.
	// Requires Downtime. Returning entities bypass MaxConcurrent (the
	// member reclaims its place) and draw a fresh session on return, so
	// an entity may cycle repeatedly. 0 disables.
	RejoinProb float64
	// Downtime samples how long a rejoining entity stays out between its
	// leave and its return.
	Downtime SessionDist
}

// Generator lazily produces the membership events of one run.
// Construct with New; a Generator is not safe for concurrent use.
type Generator struct {
	cfg    Config
	r      *rng.Rand
	nextID graph.NodeID

	departures  departureHeap
	rejoins     departureHeap // same-identity returns still pending
	nextArrival Time
	// arrCursor is the continuous-time position of the Poisson arrival
	// process. Emission times are the ceiling of the cursor, but the
	// cursor itself advances by exact exponential gaps so that rounding
	// does not bias the long-run arrival rate.
	arrCursor float64
	present   int

	initial []Event // initial population joins, drained first
	pending []Event // deferred events (same-tick ordering)
}

type departure struct {
	at   Time
	node graph.NodeID
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].node < h[j].node
}
func (h departureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// New returns a generator for the configured churn process, deterministic
// in seed.
func New(seed uint64, cfg Config) *Generator {
	if cfg.Session == nil && (cfg.InitialPopulation > 0 && !cfg.Immortal || cfg.ArrivalRate > 0) {
		panic("churn: Config.Session required when entities can churn")
	}
	if cfg.RejoinProb < 0 || cfg.RejoinProb > 1 || math.IsNaN(cfg.RejoinProb) {
		panic(fmt.Sprintf("churn: Config.RejoinProb %v outside [0, 1]", cfg.RejoinProb))
	}
	if cfg.RejoinProb > 0 && cfg.Downtime == nil {
		panic("churn: Config.Downtime required when RejoinProb > 0")
	}
	g := &Generator{cfg: cfg, r: rng.New(seed), nextArrival: -1}
	for i := 0; i < cfg.InitialPopulation; i++ {
		id := g.allocID()
		g.initial = append(g.initial, Event{At: 0, Join: true, Node: id})
		g.present++
		if !cfg.Immortal {
			heap.Push(&g.departures, departure{at: cfg.Session(g.r), node: id})
		}
	}
	if cfg.ArrivalRate > 0 {
		g.nextArrival = g.drawArrival(0)
	}
	return g
}

func (g *Generator) allocID() graph.NodeID {
	if g.nextID == graph.MaxNodeID {
		panic(fmt.Sprintf("churn: identities exhausted: every ID up to %d is handed out", graph.MaxNodeID))
	}
	g.nextID++
	return g.nextID
}

// rateAt returns the arrival rate in effect at time t (doubling schedule).
func (g *Generator) rateAt(t Time) float64 {
	rate := g.cfg.ArrivalRate
	if g.cfg.DoubleEvery > 0 && t > 0 {
		rate *= math.Pow(2, float64(t/g.cfg.DoubleEvery))
	}
	return rate
}

// drawArrival advances the continuous arrival cursor past t and returns
// the next arrival tick.
func (g *Generator) drawArrival(t Time) Time {
	rate := g.rateAt(t)
	if rate <= 0 {
		return -1
	}
	g.arrCursor += g.r.Exp(rate)
	at := Time(math.Ceil(g.arrCursor))
	// Emission times must stay monotone even when the cursor trails the
	// clock (e.g. after an M^b deferral); the cursor itself is never
	// lifted, so rounding cannot bias the long-run rate.
	if at < t {
		at = t
	}
	return at
}

// Next returns the next membership event. ok is false when the stream is
// exhausted (quiesced with no pending departures, or no churn configured).
func (g *Generator) Next() (Event, bool) {
	ev, ok := g.rawNext()
	if !ok {
		return Event{}, false
	}
	if g.cfg.QuiesceAt > 0 && ev.At >= g.cfg.QuiesceAt {
		// Events are emitted in time order, so this one and everything
		// after fall in the quiescent era: joins stop and members stay.
		// Drain the stream.
		g.initial = nil
		g.pending = nil
		g.departures = nil
		g.rejoins = nil
		g.nextArrival = -1
		return Event{}, false
	}
	return ev, true
}

func (g *Generator) rawNext() (Event, bool) {
	if len(g.initial) > 0 {
		ev := g.initial[0]
		g.initial = g.initial[1:]
		return ev, true
	}
	if len(g.pending) > 0 {
		ev := g.pending[0]
		g.pending = g.pending[1:]
		return ev, true
	}
	hasDep := g.departures.Len() > 0
	hasRej := g.rejoins.Len() > 0
	hasArr := g.nextArrival >= 0
	var depAt, rejAt Time
	if hasDep {
		depAt = g.departures[0].at
	}
	if hasRej {
		rejAt = g.rejoins[0].at
	}
	switch {
	case !hasDep && !hasRej && !hasArr:
		return Event{}, false
	case hasDep && (!hasRej || depAt <= rejAt) && (!hasArr || depAt <= g.nextArrival):
		d := g.popDeparture()
		return Event{At: d.at, Join: false, Node: d.node}, true
	case hasRej && (!hasArr || rejAt <= g.nextArrival):
		// A churner returns under its old identity and draws a fresh
		// session, so it may cycle again.
		d := heap.Pop(&g.rejoins).(departure)
		g.present++
		if g.cfg.Session != nil {
			heap.Push(&g.departures, departure{at: d.at + g.cfg.Session(g.r), node: d.node})
		}
		return Event{At: d.at, Join: true, Node: d.node}, true
	default:
		t := g.nextArrival
		if g.cfg.MaxConcurrent > 0 && g.present >= g.cfg.MaxConcurrent {
			// At capacity: defer the arrival to the moment of the next
			// departure (M^b semantics: the waiting entity takes the slot).
			if !hasDep {
				// Nobody ever leaves: the arrival can never happen.
				g.nextArrival = -1
				return g.rawNext()
			}
			d := g.popDeparture()
			g.nextArrival = d.at // join follows at the same tick
			return Event{At: d.at, Join: false, Node: d.node}, true
		}
		id := g.allocID()
		g.present++
		if g.cfg.Session != nil {
			heap.Push(&g.departures, departure{at: t + g.cfg.Session(g.r), node: id})
		}
		g.nextArrival = g.drawArrival(t)
		return Event{At: t, Join: true, Node: id}, true
	}
}

// popDeparture emits the earliest departure, flipping the rejoin coin:
// a returning churner is queued on the rejoins heap under the same
// identity, Downtime ticks out.
func (g *Generator) popDeparture() departure {
	d := heap.Pop(&g.departures).(departure)
	g.present--
	if g.cfg.RejoinProb > 0 && g.r.Bool(g.cfg.RejoinProb) {
		heap.Push(&g.rejoins, departure{at: d.at + g.cfg.Downtime(g.r), node: d.node})
	}
	return d
}

// Collect drains events with At <= horizon into a slice. The generator
// can be drained further afterwards.
func (g *Generator) Collect(horizon Time) []Event {
	var out []Event
	for {
		ev, ok := g.Next()
		if !ok {
			return out
		}
		if ev.At > horizon {
			// Push back for a later Collect call.
			g.pending = append([]Event{ev}, g.pending...)
			return out
		}
		out = append(out, ev)
	}
}
