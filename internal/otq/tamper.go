package otq

// Byzantine tampering of the protocols' wire payloads (node.Tamperable).
// Each Tamper returns a NEW payload of the same concrete type — the
// original must stay untouched because other copies of the same logical
// message may still deliver it honestly. All randomness comes from the
// fault engine's deterministic stream, and every perturbation is built
// from ordered draws, so the same plan under the same seed replays the
// identical corruption.
//
// The perturbations are chosen to attack exactly what the OTQ checker
// judges: contribution sets gain a fabricated entity (an ID no real run
// allocates) and a corrupted value for one existing entity (WrongValue);
// gossip messages inflate their mass (wrong average); sketches absorb
// phantom items (inflated count); flood queries lose TTL (coverage).
//
// The same payloads digest themselves (node.Fingerprinter) for the auth
// and audit sublayers, which must tell every tampered copy from its
// original. sketchMsg does not: it carries a pointer, which the fmt
// fallback digests by identity, and a content digest would let a clone
// whose phantom items all hit already-set bits pass as honest.

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// fabricatedBase starts the ID range Tamper fabricates contributors in.
// Experiment populations are tiny (tens of entities), so the range never
// collides with a real participant — which is what lets the checker
// attribute such contributors to fabrication rather than churn.
const fabricatedBase = 9000

// tamperContrib perturbs a contribution set into a new one: one existing
// entity's value is shifted and one fabricated contributor is added (or,
// if its ID is already there, overwritten). The victim is drawn from the
// entries sorted by ID so the choice is deterministic.
func tamperContrib(s []contrib, r *rng.Rand) []contrib {
	out := make([]contrib, len(s), len(s)+1)
	copy(out, s)
	byID := func(c contrib, id graph.NodeID) int { return cmp.Compare(c.ID, id) }
	slices.SortFunc(out, func(a, b contrib) int { return byID(a, b.ID) })
	if len(out) > 0 {
		victim := r.Intn(len(out))
		out[victim].V += 100 + float64(r.Intn(900))
	}
	fake := graph.NodeID(fabricatedBase + r.Intn(1000))
	if i, ok := slices.BinarySearchFunc(out, fake, byID); ok {
		out[i].V = float64(fake)
	} else {
		out = append(out, contrib{fake, float64(fake)})
	}
	return out
}

// digestContrib folds a contribution set into a running fingerprint
// order-independently: the entry count, then the sum of one mixed word
// per (id, value) entry. Entry order cannot matter, and nil and empty
// sets digest alike (fmt printed both maps they replaced as map[]).
func digestContrib(h uint64, s []contrib) uint64 {
	var sum uint64
	for _, c := range s {
		sum += rng.Mix64(rng.Mix64(uint64(c.ID)) + math.Float64bits(c.V))
	}
	return rng.Mix64(rng.Mix64(h^uint64(len(s))) ^ sum)
}

// Per-type fingerprint seeds: arbitrary distinct constants that keep
// equal fields under two types apart, as %T did in the fmt digest.
const (
	fpEchoSet  = 0x6d9deeee95da5109
	fpTreeEcho = 0x25199d6011bb55f9
	fpReport   = 0xc056855fcb33444b
	fpQuery    = 0xebe718df3b74e9fb
	fpGossip   = 0xb1a4a4f93b91e573
)

// Fingerprint implements node.Fingerprinter.
func (m echoSetMsg) Fingerprint() uint64 { return digestContrib(fpEchoSet, m.set()) }

// Fingerprint implements node.Fingerprinter.
func (m treeEchoMsg) Fingerprint() uint64 { return digestContrib(fpTreeEcho, m.Contrib) }

// Fingerprint implements node.Fingerprinter.
func (m reportMsg) Fingerprint() uint64 {
	return digestContrib(rng.Mix64(fpReport^uint64(m.QID)), m.Contrib)
}

// Fingerprint implements node.Fingerprinter.
func (m queryMsg) Fingerprint() uint64 {
	return rng.Mix64(rng.Mix64(fpQuery^uint64(m.QID)) ^ uint64(m.TTL))
}

// Fingerprint implements node.Fingerprinter. Floats fold as their bits,
// which keeps +0 and -0 apart as fmt did.
func (m gossipMsg) Fingerprint() uint64 {
	return rng.Mix64(rng.Mix64(fpGossip^math.Float64bits(m.S)) ^ math.Float64bits(m.W))
}

// Tamper implements node.Tamperable.
func (m echoSetMsg) Tamper(r *rng.Rand) any {
	out := tamperContrib(m.set(), r)
	return echoSetMsg{Contrib: &out}
}

// Tamper implements node.Tamperable.
func (m treeEchoMsg) Tamper(r *rng.Rand) any {
	return treeEchoMsg{Contrib: tamperContrib(m.Contrib, r)}
}

// Tamper implements node.Tamperable: the copy claims extra mass, skewing
// the push-sum average a raw receiver folds in.
func (m gossipMsg) Tamper(r *rng.Rand) any {
	return gossipMsg{S: m.S + 100 + float64(r.Intn(900)), W: m.W + 1}
}

// Tamper implements node.Tamperable: the cloned sketch absorbs phantom
// items, inflating every downstream count estimate merged from it.
func (m sketchMsg) Tamper(r *rng.Rand) any {
	if m.SK == nil {
		return m
	}
	sk := m.SK.Clone()
	for i := 0; i < 32; i++ {
		sk.Add(r.Uint64())
	}
	return sketchMsg{SK: sk}
}

// Tamper implements node.Tamperable: the query wave's reach collapses.
func (m queryMsg) Tamper(r *rng.Rand) any {
	ttl := r.Intn(m.TTL + 1)
	return queryMsg{QID: m.QID, TTL: ttl}
}

// Tamper implements node.Tamperable.
func (m reportMsg) Tamper(r *rng.Rand) any {
	return reportMsg{QID: m.QID, Contrib: tamperContrib(m.Contrib, r)}
}
