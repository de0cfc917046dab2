package node

import (
	"slices"
	"testing"

	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestStackOrder pins the inbound stage list NewWorld builds for the
// six-layer stack and for subsets whose order matters on their own, and
// that identity continuity walks exactly the layers keyed to identities
// (none without auth).
func TestStackOrder(t *testing.T) {
	var (
		rel   = ReliableConfig{Enabled: true}
		auth  = AuthConfig{Enabled: true}
		audit = AuditConfig{Enabled: true}
		rc    = ReconfigConfig{Enabled: true}
		px    = pex.Config{Enabled: true}
	)
	cases := []struct {
		name    string
		cfg     Config
		stages  []string
		keepers int
	}{
		{"six layers", Config{Reliable: rel, Auth: auth, Audit: audit, Identity: IdentityConfig{Durable: true}, Reconfig: rc, Pex: px},
			[]string{"reliable.ack", "reconfig.fence", "auth.mac", "reliable.dedup", "auth.replay",
				"reconfig.catchup", "pex.terminate", "audit.terminate", "audit.hold"}, 2},
		{"auth", Config{Auth: auth}, []string{"auth.mac", "auth.replay"}, 1},
		{"reliable+reconfig", Config{Reliable: rel, Reconfig: rc},
			[]string{"reliable.ack", "reconfig.fence", "reliable.dedup", "reconfig.catchup"}, 0},
		{"pex", Config{Pex: px}, []string{"pex.terminate"}, 0},
		{"pex+auth", Config{Pex: px, Auth: auth}, []string{"auth.mac", "auth.replay", "pex.terminate"}, 1},
		{"bare", Config{}, nil, 0},
	}
	for _, tc := range cases {
		w := NewWorld(sim.New(), topology.NewManual(), nil, tc.cfg)
		var got []string
		for _, s := range w.stages {
			got = append(got, s.name)
		}
		if !slices.Equal(got, tc.stages) {
			t.Errorf("%s: stages %q, want %q", tc.name, got, tc.stages)
		}
		if n := len(w.hooks.keepers); n != tc.keepers {
			t.Errorf("%s: %d identity keepers, want %d", tc.name, n, tc.keepers)
		}
	}
}
