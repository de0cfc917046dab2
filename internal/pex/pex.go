// Package pex implements the data model of a peer-exchange (PEX)
// membership overlay: bounded partial views of signed view records that
// entities trade on a cadence, so that each entity knows only a few
// others — the paper's geography dimension made into soft state instead
// of configuration handed to the node for free.
//
// A view record is a claim "entity ID existed at tick Epoch", carrying a
// hop age (how many exchanges it has traveled/aged through) and a
// transferable signature over (ID, Epoch) that only the subject can mint.
// Views are bounded: merging dedupes by ID keeping the freshest claim,
// aging increments every hop count once per cadence, records past the hop
// horizon decay out, and over-full views evict oldest-first. Exchange
// partners and the records shipped to them are chosen by a selection
// Policy (rand / head / tail / pushpull).
//
// The package is pure data structures and policy — deterministic given an
// rng, no clocks, no I/O. The runtime that schedules exchanges, carries
// their wire batches (node.PexExchange), reconciles views into live
// overlay links, and defends merges against Byzantine record injection
// (the view-audit sublayer) lives in internal/node; the `poison` attack on
// the exchange traffic lives in internal/fault.
package pex

import (
	"fmt"

	"repro/internal/sim"
)

// Policy selects exchange partners and the records shipped to them.
type Policy string

// Selection policies (see SNIPPETS.md / wetware's PEX lab).
const (
	// PolicyRand picks a uniform partner and uniform records.
	PolicyRand Policy = "rand"
	// PolicyHead prefers the freshest (lowest hop age) partner and records.
	PolicyHead Policy = "head"
	// PolicyTail prefers the oldest (highest hop age) partner and records —
	// the anti-entropy flavor: push what is most at risk of decaying out.
	PolicyTail Policy = "tail"
	// PolicyPushPull picks uniformly like rand, but the partner answers
	// with records of its own, halving convergence time per exchange.
	PolicyPushPull Policy = "pushpull"
)

// ParsePolicy reads a policy name (the cmd/ddsim -pex-policy values).
func ParsePolicy(s string) (Policy, error) {
	switch p := Policy(s); p {
	case PolicyRand, PolicyHead, PolicyTail, PolicyPushPull:
		return p, nil
	}
	return "", fmt.Errorf("pex: unknown policy %q (want rand, head, tail, or pushpull)", s)
}

// ViewAuditConfig parameterizes the view-audit defense the runtime's pex
// sublayer applies to every merged record. With Enabled false, a view
// accepts whatever an exchange carries — the attack surface E27 measures.
type ViewAuditConfig struct {
	// Enabled turns the defense on: record signatures are verified,
	// freshness and hop sanity are enforced, and per-peer injection
	// budgets feed the auth sublayer's quarantine machinery.
	Enabled bool
	// KeySeed is the signing ceremony's seed (the pex analogue of
	// AuditConfig.SigSeed). Zero is a valid seed.
	KeySeed uint64
}

// The view audit's fixed thresholds.
const (
	// FreshFor is the freshness window in ticks: a record whose Epoch is
	// older than this on arrival is rejected (without a strike — honest
	// peers may hold records up to the decay horizon). Catches dead-record
	// replays that keep their genuine old signature.
	FreshFor sim.Time = 64
	// AuditBudget is the number of provably-bad records (invalid
	// signature, impossible hop, duplicate within one exchange,
	// undecodable wire bytes) a peer may send before the link is
	// quarantined.
	AuditBudget = 3
)

// Config parameterizes a PEX overlay (node.Config.Pex).
type Config struct {
	// Enabled turns the pex sublayer on. The overlay given to
	// node.NewWorld must then implement topology.LinkController, because
	// the sublayer owns the edges.
	Enabled bool
	// ViewSize bounds each entity's partial view. Default 8, minimum 1.
	// An exchange ships min(MaxFanout, ViewSize) records.
	ViewSize int
	// Policy selects partners and records. Default pushpull.
	Policy Policy
	// SampleEvery is the tick interval of the overlay metrics sampler
	// (connectivity, sybil fraction, clustering, in-degree). Default 8.
	SampleEvery sim.Time
	// Audit is the view-audit defense (off by default).
	Audit ViewAuditConfig
}

// The exchange protocol's fixed constants.
const (
	// Cadence is the tick interval between an entity's exchange rounds.
	Cadence sim.Time = 4
	// MaxFanout caps the records shipped per exchange (the entity's own
	// fresh record included); a view smaller than it ships ViewSize.
	MaxFanout = 4
	// MaxHop is the decay horizon: aging past it drops a record, and an
	// arriving record older than it is rejected.
	MaxHop = 16
	// BootstrapContacts is how many present entities a joiner without a
	// seeded view is introduced to (records minted fresh, links placed).
	BootstrapContacts = 2
	// RefreshEvery re-contacts the bootstrap service for ONE fresh
	// introduction every this many cadence rounds. Hop-ordered eviction
	// keeps the nearest records, so views slowly specialize toward their
	// own neighborhood; without an outside contact now and then, two
	// halves of a large overlay can forget each other completely — an
	// absorbing partition no exchange can repair, because exchanges only
	// reach view members. The refresh bounds a partition's lifetime the
	// same way real overlays do: by never fully letting go of the
	// introduction service.
	RefreshEvery = 16
)

// WithDefaults fills the zero knobs of an enabled config.
func (c Config) WithDefaults() Config {
	if !c.Enabled {
		return c
	}
	if c.ViewSize == 0 {
		c.ViewSize = 8
	}
	if c.Policy == "" {
		c.Policy = PolicyPushPull
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 8
	}
	return c
}

// Validate reports the first configuration error, or nil. A disabled
// config is always valid; zero knobs of an enabled one mean their
// defaults (see WithDefaults). Validation judges — and its messages
// report — the EFFECTIVE values after defaulting: an error that quoted
// the literal zero a user left unset while rejecting the default it
// became would be describing a config nobody wrote.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	d := c.WithDefaults()
	if d.ViewSize < 1 {
		return fmt.Errorf("pex: ViewSize %d below the 1-record minimum", d.ViewSize)
	}
	if _, err := ParsePolicy(string(d.Policy)); err != nil {
		return err
	}
	if d.SampleEvery <= 0 {
		return fmt.Errorf("pex: SampleEvery %d must be positive", d.SampleEvery)
	}
	return nil
}
