// Services: two of the paper's follow-up problems living together in
// one churning system. Every entity simultaneously runs a replicated
// register (epidemic dissemination + join protocol) and an eventual
// leader elector (heartbeat diffusion) — composed with node.Compose,
// sharing one overlay, one churn process, one trace. The
// leader writes the register; everyone else reads it; the run's
// regularity and the final election are judged from the ground truth.
//
//	go run ./examples/services
package main

import (
	"fmt"

	"repro/internal/churn"
	"repro/internal/dynreg"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/omega"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	engine := sim.New()
	reg := &dynreg.Register{SpreadInterval: 3, WriteWindow: 60}
	elector := &omega.Elector{Beat: 5, Timeout: 150}

	factory := func(id graph.NodeID) node.Behavior {
		return node.Compose(reg.Factory()(id), elector.Behavior())
	}
	world := node.NewWorld(engine, topology.NewRing(42), factory, node.Config{
		MinLatency: 1, MaxLatency: 2, Seed: 42,
	})

	gen := churn.New(42, churn.Config{
		InitialPopulation: 16,
		Immortal:          true, // a stable core anchors both services
		ArrivalRate:       0.06,
		Session:           churn.ExpSessions(120),
	})
	world.ApplyChurn(gen, 3000)
	engine.RunUntil(100)
	reg.Bootstrap(world, 0)

	// The current leader updates the register every 200 ticks; a rotating
	// member reads it every 31.
	writes := 0
	engine.Every(200, func() {
		leader, _ := omega.Agreement(world)
		if world.Proc(leader) == nil || !reg.Active(world, leader) {
			return
		}
		writes++
		reg.Write(world, leader, float64(writes*100))
	})
	engine.Every(31, func() {
		present := world.Present()
		reg.Read(world, present[int(engine.Now())%len(present)])
	})

	engine.RunUntil(3000)
	leader, frac := omega.Agreement(world)
	finalVal, finalOK := reg.Read(world, leader)
	world.Close()
	fmt.Printf("population: %d present, %d entities ever\n",
		len(world.Present()), len(world.Trace.Entities()))
	fmt.Printf("election: leader %d with agreement %.2f (present: %v)\n",
		leader, frac, world.Proc(leader) != nil)
	fmt.Printf("register: %d writes issued by successive leaders\n", writes)
	rep := dynreg.Check(world.Trace)
	fmt.Printf("regularity: %d reads, %d stale, %d not served (rate %.3f)\n",
		rep.Reads, rep.Stale, rep.NotServed, rep.StaleRate())
	if finalOK {
		fmt.Printf("final value at the leader: %v\n", finalVal)
	}
	fmt.Println("\ntwo dynamic-system services, one overlay, one ground truth —")
	fmt.Println("composition is free once locality is the only interface.")
}
