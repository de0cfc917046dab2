package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestAckTamperingPinned aims corrupt, replay and spoof faults at the
// reliable sublayer's acks alone and pins what they do: every entity's
// ReliableCounters and the digest of the whole trace, as recorded before
// the ack's sequence number moved from its payload into the message
// header. An ack is not Tamperable, so a corrupted one is mangled beyond
// parsing and dropped (its sender retransmits); a replayed one arrives
// after the first copy settled its message and settles nothing; a spoofed
// one still settles, since an ack's claimed sender is never checked.
// The full-stack case was re-pinned when a reconfiguration round's quorum
// base stopped counting crashed entities: its first round starts at 60,
// with entity 6 gone and entity 7 crashed, so its base is the 6 present
// entities (3 acks at the default PrepareQuorum), not the overlay's 7
// nodes (4 acks).
func TestAckTamperingPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		stats string
		trace string
	}{
		{
			name:  "reliable",
			cfg:   Config{Reliable: ReliableConfig{Enabled: true}},
			stats: "1:{Acked:443 Retries:114 GiveUps:0} 2:{Acked:269 Retries:59 GiveUps:0} 3:{Acked:366 Retries:87 GiveUps:0} 4:{Acked:336 Retries:101 GiveUps:0} 5:{Acked:198 Retries:34 GiveUps:0} 6:{Acked:174 Retries:37 GiveUps:0} 7:{Acked:158 Retries:33 GiveUps:0} 8:{Acked:187 Retries:39 GiveUps:0}",
			trace: "1c2a5ffbee768594",
		},
		{
			name: "full-stack",
			cfg: Config{
				Reliable: ReliableConfig{Enabled: true, Adaptive: true},
				Auth:     AuthConfig{Enabled: true, Parole: 60},
				Audit:    AuditConfig{Enabled: true, Pull: true},
				Identity: IdentityConfig{Durable: true},
				Reconfig: ReconfigConfig{Enabled: true},
			},
			stats: "1:{Acked:848 Retries:200 GiveUps:0} 2:{Acked:501 Retries:81 GiveUps:0} 3:{Acked:693 Retries:165 GiveUps:0} 4:{Acked:621 Retries:171 GiveUps:0} 5:{Acked:356 Retries:54 GiveUps:0} 6:{Acked:313 Retries:51 GiveUps:0} 7:{Acked:290 Retries:44 GiveUps:0} 8:{Acked:344 Retries:59 GiveUps:0}",
			trace: "6556c4011eb19632",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.MinLatency, cfg.MaxLatency, cfg.Seed = 1, 3, 17
			e := sim.New()
			w := NewWorld(e, topology.NewRandomK(5, 3), func(graph.NodeID) Behavior { return &chatter{} }, cfg)
			r := rng.New(23)
			victim := graph.NodeID(3)
			w.SetChannelHook(func(_ sim.Time, _, _ graph.NodeID, tag string) ChannelFault {
				var f ChannelFault
				if tag != AckTag {
					return f
				}
				if r.Bool(0.15) {
					f.Corrupt = func(p any) (any, bool) {
						if tp, ok := p.(Tamperable); ok {
							return tp.Tamper(r), true
						}
						return nil, false
					}
				}
				if r.Bool(0.15) {
					f.ReplayAfter = sim.Time(1 + r.Intn(8))
				}
				if r.Bool(0.1) {
					f.SpoofFrom = &victim
				}
				return f
			})
			for id := graph.NodeID(1); id <= 8; id++ {
				w.Join(id)
			}
			e.At(40, func() { w.Leave(6) })
			e.At(55, func() { w.Crash(7) })
			e.At(70, func() { w.Join(6) })
			e.At(90, func() { w.Recover(7) })
			if w.ReconfigEnabled() {
				e.At(60, func() { w.Reconfigure(1, StackConfig{KeyEpoch: 1}) })
				e.At(120, func() { w.Reconfigure(2, StackConfig{KeyEpoch: 2, Adaptive: true}) })
			}
			e.RunUntil(200)
			w.Close()

			stats := w.ReliableStats()
			var per []string
			for id := graph.NodeID(1); id <= 8; id++ {
				if c, ok := stats[id]; ok {
					per = append(per, fmt.Sprintf("%d:%+v", id, c))
				}
			}
			got := strings.Join(per, " ")
			var buf bytes.Buffer
			if err := core.EncodeTrace(&buf, w.Trace); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			digest := hex.EncodeToString(sum[:8])
			tot := w.ReliableTotals()
			if tot.Retries == 0 || tot.Acked == 0 {
				t.Fatalf("storm too tame: %+v", tot)
			}
			if uint64(tot.Acked+tot.GiveUps) > w.rel.seq {
				t.Fatalf("%d messages settled by ack or give-up, only %d ever tracked", tot.Acked+tot.GiveUps, w.rel.seq)
			}
			if got != tc.stats || digest != tc.trace {
				t.Errorf("reliable counters\n%s\nwant\n%s\ntrace digest %s, want %s", got, tc.stats, digest, tc.trace)
			}
		})
	}
}
