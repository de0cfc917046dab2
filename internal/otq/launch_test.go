package otq

import (
	"fmt"
	"testing"

	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestLaunchPreconditions: every Launch refuses a second query on one
// protocol value, an absent querier, and a world whose entities run some
// other protocol's behaviour — with these exact messages.
func TestLaunchPreconditions(t *testing.T) {
	world := func(f node.BehaviorFactory) *node.World {
		w := node.NewWorld(sim.New(), topology.NewMesh(), f, node.Config{Seed: 1})
		w.Join(1)
		w.Join(2)
		return w
	}
	for _, pr := range digestProtocols {
		foreign := (&GossipPushSum{}).Factory()
		if pr.goName == "GossipPushSum" {
			foreign = (&EchoWave{}).Factory()
		}
		for _, c := range []struct {
			name, want string
			do         func()
		}{
			{"second launch", "otq: " + pr.goName + " launched twice", func() {
				f, launch := pr.make()
				w := world(f)
				launch(w, 1)
				launch(w, 2)
			}},
			{"absent querier", "otq: querier 99 not present", func() {
				f, launch := pr.make()
				launch(world(f), 99)
			}},
			{"foreign factory", "otq: world was not built with this protocol's factory", func() {
				_, launch := pr.make()
				launch(world(foreign), 1)
			}},
		} {
			func() {
				defer func() {
					if got := fmt.Sprint(recover()); got != c.want {
						t.Errorf("%s, %s: panic %q, want %q", pr.name, c.name, got, c.want)
					}
				}()
				c.do()
			}()
		}
	}
}
