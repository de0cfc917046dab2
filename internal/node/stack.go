package node

// The sublayer stack, declared once: NewWorld builds the inbound stages
// deliver walks and the hooks arrivals and departures walk.

import "repro/internal/graph"

// stageRank is an inbound stage's position in deliver's walk. Each rank
// belongs to one layer and is skipped while that layer is off; the order
// is what makes the composed stack sound.
type stageRank int

const (
	// Acks terminate before any gate. They travel unauthenticated: a
	// forged one can at worst suppress a retransmission, which the model
	// counts as channel loss.
	rankAck stageRank = iota
	// The epoch fence drops a copy too many epochs behind the receiver
	// before authentication: it needs no key to judge, and fencing first
	// means a straggler — or a forged stamp — never charges an honest
	// sender's budget.
	rankFence
	// Quarantine filter and authenticator verification run BEFORE the
	// reliable ack, so a corrupted or forged copy is never acknowledged
	// and the honest sender retransmits a clean one: what lets the
	// composed stack restore validity under Byzantine channel faults.
	rankMAC
	rankDedup
	// The anti-replay window runs AFTER dedup, so benign retransmissions
	// never charge the sender's misbehavior budget; with the reliable
	// sublayer off it is the only duplicate and replay filter.
	rankReplay
	// Only a fully verified copy's epoch stamp may pull its receiver
	// forward, so a forged stamp drags nobody.
	rankCatchup
	// Pex exchanges terminate after authentication but outside the audit
	// hold: their records carry their own signatures and freshness.
	rankPex
	rankAudit
	// The hold comes last: a proof of equivocation established while the
	// payload waits kills the lie before the behavior folds it in.
	rankHold
)

var stageNames = [...]string{
	rankAck:     "reliable.ack",
	rankFence:   "reconfig.fence",
	rankMAC:     "auth.mac",
	rankDedup:   "reliable.dedup",
	rankReplay:  "auth.replay",
	rankCatchup: "reconfig.catchup",
	rankPex:     "pex.terminate",
	rankAudit:   "audit.terminate",
	rankHold:    "audit.hold",
}

// stage is one named inbound step. run inspects a copy arriving at its
// recipient q and reports whether it goes on down the stack; a stage that
// ends the copy records what it did itself.
type stage struct {
	name string
	run  func(w *World, q *Proc, m Message) bool
}

// arrival tells the arrive hooks how an entity came: a join or rejoin, or
// a recovery with what its crash left in the stable store.
type arrival struct {
	rejoin, recovering bool
	snap               durableSnapshot
}

// layerHooks are the enabled layers' parts in arrivals and departures,
// each list walked in the order NewWorld registered it.
type layerHooks struct {
	// arrive runs before an arriving entity's behavior starts (the layers
	// bind their records on the Proc, then identity runs), start after.
	arrive []func(p *Proc, a arrival)
	start  []func(p *Proc)
	// depart runs once the entity stopped being a Proc; crash is the
	// snapshot a Crash stores (nil for a Leave), for what must survive.
	depart []func(p *Proc, crash *durableSnapshot)
	// relink runs for every edge flipped from outside the pex views: the
	// overlay's changes at arrivals and departures, and SetLink.
	relink  []func(u, v graph.NodeID, up bool)
	keepers []identityKeeper
}
