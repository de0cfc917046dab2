// Command ddsim runs a single dynamic-system simulation: an overlay, a
// churn process, a One-Time Query protocol, and prints the specification
// checker's judgment next to the solvability oracle's prediction.
//
// Example:
//
//	ddsim -overlay ring -n 32 -arrival 0.1 -session 80 -protocol echo-wave -horizon 2000
//	ddsim -overlay star -n 24 -protocol flood-ttl -ttl 2
//	ddsim -overlay growing-path -n 4 -arrival 0.05 -double-every 250 -protocol expanding-ring
//	ddsim -overlay ring -n 16 -protocol echo-wave -faults 'burst:pgb=0.1,pbg=0.2,lossbad=0.9;seed=7' -reliable
//	ddsim -overlay ring -n 16 -protocol echo-wave -byzantine byz-storm -reliable -auth
//	ddsim -overlay ring -n 16 -protocol echo-wave -byzantine equiv -reliable -audit -parole 150
//	ddsim -overlay ring -n 16 -protocol echo-wave -faults 'collude:nodes=3,peers=1+5,groups=2,p=1' -reliable -pull -pull-ttl 2
//	ddsim -overlay ring -n 16 -protocol echo-wave -byzantine equiv -reliable -audit -rejoin 'nodes=3,down=40@200' -durable-identity -bridge-rejoins
//	ddsim -overlay ring -n 16 -protocol echo-wave -reliable -auth -reconfig 'nodes=1,every=80,count=4,rotate=1@120'
//	ddsim -n 64 -protocol echo-wave -pex -pex-policy pushpull -pex-view 8
//	ddsim -n 64 -protocol echo-wave -pex -auth -poison 'nodes=4+9,rate=1,sybils=3,base=1000@24-'
//	ddsim -n 10000 -protocol none -pex -lite-trace -arrival 1 -horizon 240
//	ddsim -n 10000 -protocol flood-ttl -ttl 10 -pex -stream-check -lite-trace -query-at 120 -horizon 240
//	ddsim -n 64 -protocol none -pex -tq -tq-coeff 1.6 -tq-ttl 4 -arrival 1.3 -session 40 -horizon 600
//	ddsim -n 1024 -protocol none -pex -tq -tq-coeff 1.6 -tq-ttl 4 -lite-trace -arrival 20 -session 40 -horizon 600
//	ddsim -n 48 -protocol none -dynreg -write-window 96 -arrival 0.5 -session 60 -horizon 600
//	ddsim -n 4000 -overlay random-k -k 4 -protocol flood-repeat -stream-check -lite-trace -horizon 300 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"

	"repro/internal/agg"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/dynreg"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/otq"
	"repro/internal/pex"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tq"
)

func main() {
	var (
		overlayName = flag.String("overlay", "ring", "overlay: mesh, star, ring, random-k, growing-path, fragile")
		k           = flag.Int("k", 3, "neighbor count for the random-k overlay")
		n           = flag.Int("n", 32, "initial population (immortal core)")
		arrival     = flag.Float64("arrival", 0, "Poisson arrival rate per tick (0 = no churn)")
		session     = flag.Float64("session", 80, "mean session length of arrivals (exp-distributed)")
		doubleEvery = flag.Int64("double-every", 0, "double the arrival rate every D ticks (M^inf runs)")
		quiesceAt   = flag.Int64("quiesce-at", 0, "suppress churn from this tick on (eventual stability)")
		protoName   = flag.String("protocol", "echo-wave", "protocol: flood-ttl, flood-repeat, echo-wave, tree-echo, expanding-ring, gossip-push-sum, none (no query or judgment — membership/throughput runs at populations a judged query would not fit)")
		ttl         = flag.Int("ttl", 4, "TTL for flood-ttl")
		queryAt     = flag.Int64("query-at", 100, "virtual time the query launches")
		horizon     = flag.Int64("horizon", 2000, "virtual time the run stops")
		seed        = flag.Uint64("seed", 1, "run seed")
		faultsSpec  = flag.String("faults", "", "fault plan, e.g. 'burst:pgb=0.1,pbg=0.2;crash:nodes=4,recover=50@60;seed=7' (see internal/fault)")
		byzantine   = flag.String("byzantine", "", "inject a canned Byzantine adversary level: corrupt, replay+forge, byz-storm, equiv (clauses are appended to -faults)")
		reliable    = flag.Bool("reliable", false, "run protocols over the ack/retransmit channel sublayer")
		auth        = flag.Bool("auth", false, "run protocols over the authentication/quarantine channel sublayer")
		audit       = flag.Bool("audit", false, "stack the equivocation audit sublayer (receipt gossip + proof forwarding; implies -auth)")
		pull        = flag.Bool("pull", false, "add receipt pull anti-entropy to the audit sublayer (periodic store digests to rotating neighbors; implies -audit)")
		pullTTL     = flag.Int("pull-ttl", 0, "forwarding budget of pull digests (0 = default 2)")
		parole      = flag.Int64("parole", 0, "reinstate quarantined links after this many ticks, with a halved misbehavior budget (0 = permanent)")
		bridge      = flag.Bool("bridge-recoveries", false, "judge Validity over recovery-bridged sessions (crashed-and-recovered entities count as stable)")
		durableID   = flag.Bool("durable-identity", false, "persist identity records (auth counters, replay windows, quarantines, audit bseq space) across Leave/Join")
		rejoinSpec  = flag.String("rejoin", "", "rejoin clause body appended to -faults, e.g. 'nodes=3,down=40@200' or 'nodes=3,down=40,reset=1@200' (see internal/fault)")
		reconfSpec  = flag.String("reconfig", "", "reconfig clause body appended to -faults, e.g. 'nodes=1,rotate=1@200' or 'every=80,count=4,rotate=1,retain=64@120' (enables the reconfiguration layer; see internal/fault)")
		bridgeRe    = flag.Bool("bridge-rejoins", false, "judge Validity over rejoin-bridged sessions (same-identity rejoiners and crash-recoverers count as stable; subsumes -bridge-recoveries)")
		pexOn       = flag.Bool("pex", false, "maintain the overlay through the partial-view peer-exchange membership layer (replaces -overlay with the view-driven manual overlay; -auth adds the view-audit defense)")
		pexPolicy   = flag.String("pex-policy", "pushpull", "pex exchange policy: rand, head, tail, pushpull")
		pexView     = flag.Int("pex-view", 8, "pex partial-view size")
		poisonSpec  = flag.String("poison", "", "poison clause body appended to -faults, e.g. 'nodes=4+9,rate=1,sybils=3,base=1000@24-' (requires -pex; see internal/fault)")
		liteTrace   = flag.Bool("lite-trace", false, "count-only trace retention: exact message/concurrency counters, no stored events (requires -protocol none or -stream-check, since a post-hoc OTQ replay reads stored events; keeps 100k-entity runs in memory)")
		streamCheck = flag.Bool("stream-check", false, "feed the OTQ judge live from the event stream instead of replaying the stored trace after the run (same judge, same verdict; composes with -lite-trace so judged runs need no stored trace)")
		tqOn        = flag.Bool("tq", false, "drive the timed-quorum replicated register workload, judged by its streaming regularity checker (requires -protocol none; pair with -pex for the dynamic-overlay setting; composes with -lite-trace)")
		dynOn       = flag.Bool("dynreg", false, "drive the epidemic replicated register workload, judged by its batch regularity checker (requires -protocol none; the batch checker reads stored events, so -lite-trace is rejected)")
		tqCoeff     = flag.Float64("tq-coeff", 0, "tq quorum coefficient: q = ceil(coeff*sqrt(N)) (0 = default 1.0)")
		tqTTL       = flag.Int("tq-ttl", 0, "tq walk hop budget (0 = default 8; keep small over -pex — walk return paths decay as views rotate)")
		tqLease     = flag.Int64("tq-lease", 0, "fix the tq attempt/value lease outright (0 = size from measured churn)")
		spread      = flag.Int64("spread", 0, "dynreg anti-entropy period (0 = default 4)")
		writeWindow = flag.Int64("write-window", 0, "dynreg write completion window (0 = default 40)")
		writeEvery  = flag.Int64("write-every", 16, "register workloads: write period of the single immortal writer")
		readEvery   = flag.Int64("read-every", 7, "register workloads: read period (reads rotate over present members)")
		opsAt       = flag.Int64("ops-at", 0, "register workloads: first-operation tick (0 = horizon/5)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run (set-up, simulation and judgment) to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile, taken after the run, to this file")
	)
	flag.Parse()

	switch {
	case *n < 1:
		reject(fmt.Sprintf("-n %d: the founding population needs at least 1 entity (it hosts the querier and the register writer)", *n))
	case *horizon < 1:
		reject(fmt.Sprintf("-horizon %d: the run needs a positive horizon", *horizon))
	case *overlayName == "random-k" && *k < 1 && !*pexOn:
		reject(fmt.Sprintf("-k %d: the random-k overlay needs at least 1 neighbor", *k))
	case *arrival < 0:
		reject(fmt.Sprintf("-arrival %v: the arrival rate cannot be negative (0 = no churn)", *arrival))
	case *arrival > 0 && *session <= 0:
		reject(fmt.Sprintf("-session %v: arrivals need a positive mean session length", *session))
	case *doubleEvery < 0:
		reject(fmt.Sprintf("-double-every %d: the doubling period cannot be negative (0 = a constant rate)", *doubleEvery))
	case *quiesceAt < 0:
		reject(fmt.Sprintf("-quiesce-at %d: the quiescence tick cannot be negative (0 = churn never stops)", *quiesceAt))
	}
	overlay, err := overlayBuilder(*overlayName, *k)
	if err != nil {
		reject(err)
	}
	var pexCfg pex.Config
	if *pexOn {
		policy, err := pex.ParsePolicy(*pexPolicy)
		if err != nil {
			reject(err)
		}
		pexCfg = pex.Config{Enabled: true, ViewSize: *pexView, Policy: policy}
		// The membership layer needs link control: views drive the edges,
		// so the self-maintaining overlays would fight it.
		overlay = func(uint64) topology.Overlay { return topology.NewManual() }
	} else if *poisonSpec != "" {
		reject("-poison requires -pex (there is no view traffic to poison)")
	}
	proto, protoID, err := protocolBuilder(*protoName, *ttl)
	if err != nil {
		reject(err)
	}
	switch {
	case proto == nil:
		// Protocol-less run: no query launches, so the query-at default is
		// meaningless rather than wrong — zero it instead of erroring.
		*queryAt = 0
		if *streamCheck {
			reject("-stream-check without a query protocol has nothing to judge; drop it or pick a -protocol")
		}
	case *liteTrace && !*streamCheck:
		reject("-lite-trace discards the events a post-hoc OTQ replay reads; add -stream-check or use -protocol none")
	case *queryAt < 0 || *queryAt > *horizon:
		reject(fmt.Sprintf("-query-at %d: the query must launch inside the run, in [0, -horizon %d]", *queryAt, *horizon))
	}

	var tqc *tq.Client
	var tqsc *tq.StreamChecker
	var reg *dynreg.Register
	if *tqOn || *dynOn {
		switch {
		case *tqOn && *dynOn:
			reject("-tq and -dynreg are mutually exclusive — one world hosts one register")
		case proto != nil:
			reject("the register workloads replace the query; run with -protocol none")
		case *dynOn && *liteTrace:
			reject("-dynreg is judged by a batch trace scan, which -lite-trace discards; drop -lite-trace or use -tq (streaming checker)")
		case *writeEvery < 1 || *readEvery < 1:
			reject("-write-every and -read-every must be positive")
		case *opsAt < 0 || *opsAt >= *horizon:
			reject(fmt.Sprintf("-ops-at %d: the first register operation must fall inside the run, in [0, -horizon %d) (0 = horizon/5)", *opsAt, *horizon))
		}
		if *tqOn {
			tcfg := tq.Config{QuorumCoeff: *tqCoeff, WalkTTL: *tqTTL,
				Lease: sim.Time(*tqLease), Seed: *seed}
			if err := tcfg.Validate(); err != nil {
				reject(err)
			}
			tqc = tq.NewClient(tcfg)
			tqsc = tq.NewStreamChecker()
		} else {
			reg = &dynreg.Register{SpreadInterval: sim.Time(*spread), WriteWindow: sim.Time(*writeWindow)}
			if err := reg.Validate(); err != nil {
				reject(err)
			}
		}
	}

	plan := addClauses(nil, "", *faultsSpec)
	if *byzantine != "" && *byzantine != "none" {
		if !slices.Contains(exp.ByzLevels, *byzantine) {
			reject(fmt.Sprintf("unknown -byzantine level %q (want one of %v)", *byzantine, exp.ByzLevels))
		}
		plan = mergePlans(plan, exp.ByzPlan(*byzantine, *seed))
	}
	plan = addClauses(plan, "rejoin:", *rejoinSpec)
	plan = addClauses(plan, "reconfig:", *reconfSpec)
	plan = addClauses(plan, "poison:", *poisonSpec)

	cc := churn.Config{InitialPopulation: *n, Immortal: true}
	if *arrival > 0 {
		cc.ArrivalRate = *arrival
		cc.Session = churn.ExpSessions(*session)
		cc.DoubleEvery = *doubleEvery
		cc.QuiesceAt = *quiesceAt
	}
	relCfg := node.ReliableConfig{Enabled: *reliable}
	authCfg := node.AuthConfig{Enabled: *auth || *audit || *pull, Parole: *parole}
	auditCfg := node.AuditConfig{Enabled: *audit || *pull, Pull: *pull, PullTTL: *pullTTL}
	identCfg := node.IdentityConfig{Durable: *durableID}
	reconfCfg := node.ReconfigConfig{Enabled: *reconfSpec != ""}
	if pexCfg.Enabled {
		pexCfg.Audit = pex.ViewAuditConfig{Enabled: authCfg.Enabled, KeySeed: *seed}
	}
	if err := (node.Config{MinLatency: 1, MaxLatency: 2, Reliable: relCfg, Auth: authCfg, Audit: auditCfg, Identity: identCfg, Reconfig: reconfCfg, Pex: pexCfg}).Validate(); err != nil {
		reject(err)
	}
	scen := exp.Scenario{
		Seed:        *seed,
		Overlay:     overlay,
		Churn:       cc,
		Protocol:    proto,
		LiteTrace:   *liteTrace,
		StreamCheck: *streamCheck,
		MinLatency:  1, MaxLatency: 2,
		Faults:           plan,
		Reliable:         relCfg,
		Auth:             authCfg,
		Audit:            auditCfg,
		Identity:         identCfg,
		Reconfig:         reconfCfg,
		Pex:              pexCfg,
		BridgeRecoveries: *bridge,
		BridgeRejoins:    *bridgeRe,
		QueryAt:          sim.Time(*queryAt),
		Horizon:          sim.Time(*horizon),
	}
	regWrites, regReads := 0, 0
	if tqc != nil || reg != nil {
		start := sim.Time(*opsAt)
		if start == 0 {
			start = sim.Time(*horizon / 5)
		}
		if tqc != nil {
			scen.Factory = tqc.Factory()
		} else {
			scen.Factory = reg.Factory()
		}
		wEvery, rEvery := sim.Time(*writeEvery), sim.Time(*readEvery)
		scen.Script = func(w *node.World, e *sim.Engine) {
			if tqsc != nil {
				w.Trace.Stream(tqsc.Observe)
			}
			e.At(start, func() {
				writer := w.Present()[0] // immortal founding member
				if tqc != nil {
					tqc.Bootstrap(w, 0)
					tqc.Attach(w)
				} else {
					reg.Bootstrap(w, 0)
				}
				val := 0.0
				e.Every(wEvery, func() {
					val++
					regWrites++
					if tqc != nil {
						tqc.Write(w, writer, val)
					} else {
						reg.Write(w, writer, val)
					}
				})
				turn := 0
				e.Every(rEvery, func() {
					present := w.Present()
					id := present[turn%len(present)]
					turn++
					regReads++
					if tqc != nil {
						tqc.Read(w, id)
					} else {
						reg.Read(w, id)
					}
				})
			})
		}
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	res := exp.Execute(scen)
	stopProfiles()
	if plan != nil {
		fmt.Printf("faults: %s (%s)\n", plan.Summary(), plan)
	}

	fmt.Printf("run: overlay=%s protocol=%s seed=%d horizon=%d\n", *overlayName, *protoName, *seed, *horizon)
	if proto != nil {
		fmt.Printf("querier: entity %d, query window [%d, ...]\n", res.Querier, *queryAt)
	}
	if *liteTrace {
		// Count-only retention keeps no per-entity events to enumerate.
		fmt.Printf("trace: %d events (count-only), max concurrency %d\n",
			res.Trace.Len(), res.Trace.MaxConcurrency())
	} else {
		fmt.Printf("trace: %d events, %d entities ever, max concurrency %d\n",
			res.Trace.Len(), len(res.Trace.Entities()), res.Trace.MaxConcurrency())
	}
	fmt.Printf("messages: sent %d, delivered %d, dropped %d\n",
		res.Messages.Sent, res.Messages.Delivered, res.Messages.Dropped)
	if *reliable {
		fmt.Printf("reliable sublayer: acked %d, retries %d, give-ups %d\n",
			res.Reliable.Acked, res.Reliable.Retries, res.Reliable.GiveUps)
	}
	if *auth || *audit {
		fmt.Printf("auth sublayer: accepted %d, rejected corrupt %d, rejected replay %d, quarantines %d\n",
			res.Auth.Accepted, res.Auth.RejectedCorrupt, res.Auth.RejectedReplay, res.Auth.Quarantines)
		if len(res.Outcome.Quarantined) > 0 {
			fmt.Printf("quarantined entities: %v (missed-but-quarantined %v)\n",
				res.Outcome.Quarantined, res.Outcome.MissedQuarantined)
		}
	}
	if *audit || *pull {
		fmt.Printf("audit sublayer: receipts sent %d (carrying %d), proofs forwarded %d, held-and-dropped %d\n",
			res.Audit.ReceiptsSent, res.Audit.ReceiptsCarried, res.Audit.ProofsForwarded, res.Audit.HeldDropped)
		if *pull {
			fmt.Printf("pull anti-entropy: digests sent %d, relayed %d, answered %d; pins %d, evictions %d\n",
				res.Audit.PullsSent, res.Audit.PullsRelayed, res.Audit.PullReplies, res.Audit.Pinned, res.Audit.Evicted)
		}
		fmt.Printf("audit evidence: %d equivocated broadcasts, %d proven; proven offenders %v\n",
			res.AuditSummary.EquivocatedBroadcasts, res.AuditSummary.ProvenBroadcasts, res.AuditSummary.ProvenOffenders)
		if len(res.Outcome.ProvenEquivocators) > 0 {
			fmt.Printf("proven equivocators: %v (missed-but-proven %v)\n",
				res.Outcome.ProvenEquivocators, res.Outcome.MissedProven)
		}
	}
	if *pexOn {
		fmt.Printf("pex overlay: exchanges %d (replies %d), records shipped %d merged %d, bootstraps %d, decayed %d, links %d/-%d\n",
			res.Pex.Exchanges, res.Pex.Replies, res.Pex.RecordsShipped, res.Pex.RecordsMerged,
			res.Pex.Bootstraps, res.Pex.Decayed, res.Pex.Links, res.Pex.Unlinks)
		if at := res.PexConvergedAt; at >= 0 {
			fmt.Printf("pex convergence: overlay first fully connected at t=%d\n", at)
		} else {
			fmt.Println("pex convergence: overlay never fully connected")
		}
		if authCfg.Enabled {
			fmt.Printf("view audit: rejected sig %d, stale %d, hop %d, dup %d, undecodable %d; strikes %d, view quarantines %d, convict evictions %d\n",
				res.Pex.RejectedSig, res.Pex.RejectedStale, res.Pex.RejectedHop,
				res.Pex.RejectedDup, res.Pex.RejectedBad, res.Pex.Strikes,
				res.Pex.ViewQuarantines, res.Pex.ConvictEvictions)
		}
	}
	if *reconfSpec != "" {
		fmt.Printf("reconfiguration: epochs committed %d (initiated %d), switches %d, catch-ups %d, drains %d (timeouts %d), fenced stale %d\n",
			res.Reconfig.Committed, res.Reconfig.Initiated, res.Reconfig.Switches,
			res.Reconfig.CatchUps, res.Reconfig.Drains, res.Reconfig.DrainTimeouts,
			res.Reconfig.StaleEpochDrops)
	}
	if *durableID || res.Identity != (node.IdentityCounters{}) {
		fmt.Printf("identity continuity: saved %d, restored %d, session resets %d, laundered %d quarantines + %d convictions\n",
			res.Identity.Saves, res.Identity.Restores, res.Identity.SessionResets,
			res.Identity.QuarantinesLaundered, res.Identity.ConvictionsLaundered)
	}
	if tqc != nil {
		rep := tqsc.Finish()
		cn := tqc.Counters()
		fmt.Printf("tq register: writes %d (quorum %d, soft %d, unfinished %d), reads %d issued, retries %d\n",
			regWrites, rep.WriteQuorums, rep.WriteSofts, rep.UnfinishedWrites, regReads, rep.Retries)
		fmt.Printf("tq reads: value %d (flagged soft %d, lease-expired %d), no-value %d, unfinished %d; mean rlat %.1f, wlat %.1f\n",
			rep.Reads, rep.Soft, rep.Expired, rep.NoValue, rep.Unfinished,
			rep.MeanReadLatency(), rep.MeanWriteLatency())
		fmt.Printf("tq lease: effective %d ticks (measured churn %.4f per member per tick)\n",
			tqc.EffectiveLease(), tqc.MeasuredRate())
		fmt.Printf("tq walks: launched %d, probe deliveries %d, forwards %d, responses consumed %d (late %d)\n",
			cn.Walks, cn.Probes, cn.Forwards, cn.Responses, cn.LateResponses)
		fmt.Printf("tq regularity (streaming): stale %d, fabricated %d (violation rate %.3f, max lag %d)\n",
			rep.Stale, rep.Fabricated, rep.ViolationRate(), rep.MaxLag)
		if rep.OK() {
			fmt.Println("verdict: every value-returning read was regular — degradation stayed flagged (soft), never silent")
		} else {
			fmt.Println("verdict: the register served silently wrong answers on this run")
		}
		return
	}
	if reg != nil {
		rep := dynreg.Check(res.Trace)
		fmt.Printf("dynreg register: writes %d issued, reads served %d, refused %d (join incomplete)\n",
			regWrites, rep.Reads, rep.NotServed)
		fmt.Printf("dynreg regularity: stale %d, fabricated %d (stale rate %.3f, max lag %d)\n",
			rep.Stale, rep.Fabricated, rep.StaleRate(), rep.MaxLag)
		if rep.OK() {
			fmt.Println("verdict: every served read was regular on this run")
		} else {
			fmt.Println("verdict: the register served silently stale or fabricated answers on this run")
		}
		return
	}
	if proto == nil {
		// No query ran: there is no judgment to print, and the inferred
		// class needs the per-event trace a lite run discards.
		return
	}
	if *streamCheck {
		fmt.Println("checker: live feed (verdict identical to a post-hoc replay)")
	}
	if *liteTrace {
		fmt.Println("inferred class: n/a (count-only retention keeps no events to classify)")
	} else {
		fmt.Printf("inferred class: %s\n", res.Inferred)

		verdict, reason := core.OTQSolvability(res.Inferred)
		fmt.Printf("oracle on the inferred class: %s (%s)\n", verdict, reason)
		pred := core.PredictOTQ(protoID, res.Inferred)
		fmt.Printf("oracle on %s here: terminates=%v valid=%v (%s)\n", protoID, pred.Terminates, pred.Valid, pred.Note)
	}

	fmt.Printf("\noutcome: %s\n", res.Outcome)
	if ans := res.Run.Answer(); ans != nil {
		fmt.Printf("answer: count=%v sum=%v min=%v max=%v mean=%v\n",
			ans.Result(agg.Count), ans.Result(agg.Sum), ans.Result(agg.Min),
			ans.Result(agg.Max), ans.Result(agg.Mean))
	}
	switch {
	case res.Outcome.OK():
		fmt.Println("verdict: Termination and Validity both hold on this run")
	case res.Outcome.ValidModuloProven():
		fmt.Println("verdict: NOT exactly met — but valid modulo proven equivocators (every missed stable participant was convicted on its own signatures)")
	case res.Outcome.ValidModuloQuarantine():
		fmt.Println("verdict: NOT exactly met — but valid modulo quarantine (every missed stable participant was quarantined by some receiver)")
	default:
		fmt.Println("verdict: the One-Time Query specification was NOT met on this run")
	}
}

// reject refuses the command line: one "ddsim: ..." line on stderr, exit
// status 2.
func reject(why any) {
	fmt.Fprintln(os.Stderr, "ddsim:", why)
	os.Exit(2)
}

// startProfiles opens the -cpuprofile and -memprofile files (an empty
// path turns that profile off) and starts the CPU profile; an unwritable
// path is rejected before the run. The returned func stops the CPU
// profile and writes the heap profile once the run is over.
func startProfiles(cpuPath, memPath string) (stop func()) {
	create := func(name, path string) *os.File {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			reject(fmt.Sprintf("-%s: %v", name, err))
		}
		return f
	}
	cpu, mem := create("cpuprofile", cpuPath), create("memprofile", memPath)
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			reject(fmt.Sprintf("-cpuprofile: %v", err))
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				reject(fmt.Sprintf("-cpuprofile: %v", err))
			}
		}
		if mem != nil {
			runtime.GC() // settle the heap so the profile shows what the run left live
			if err := pprof.WriteHeapProfile(mem); err != nil {
				reject(fmt.Sprintf("-memprofile: %v", err))
			}
			if err := mem.Close(); err != nil {
				reject(fmt.Sprintf("-memprofile: %v", err))
			}
		}
	}
}

// mergePlans appends extra's clauses to plan; a nil plan becomes extra.
func mergePlans(plan, extra *fault.Plan) *fault.Plan {
	if plan == nil {
		return extra
	}
	plan.Clauses = append(plan.Clauses, extra.Clauses...)
	return plan
}

// addClauses parses the fault DSL text kind+spec (kind is "" for a whole
// plan, or one clause's "name:" prefix for a flag that carries only the
// clause body) and merges it into plan. An empty spec adds nothing.
func addClauses(plan *fault.Plan, kind, spec string) *fault.Plan {
	if spec == "" {
		return plan
	}
	extra, err := fault.Parse(kind + spec)
	if err != nil {
		reject(err)
	}
	return mergePlans(plan, extra)
}

func overlayBuilder(name string, k int) (func(uint64) topology.Overlay, error) {
	switch name {
	case "mesh":
		return func(uint64) topology.Overlay { return topology.NewMesh() }, nil
	case "star":
		return func(uint64) topology.Overlay { return topology.NewStar() }, nil
	case "ring":
		return func(seed uint64) topology.Overlay { return topology.NewRing(seed) }, nil
	case "random-k":
		return func(seed uint64) topology.Overlay { return topology.NewRandomK(seed, k) }, nil
	case "growing-path":
		return func(uint64) topology.Overlay { return topology.NewGrowingPath() }, nil
	case "fragile":
		return func(seed uint64) topology.Overlay { return topology.NewFragile(seed) }, nil
	default:
		return nil, fmt.Errorf("unknown overlay %q", name)
	}
}

func protocolBuilder(name string, ttl int) (func() otq.Protocol, core.ProtocolID, error) {
	if ttl < 1 && (name == "flood-ttl" || name == "flood-repeat") {
		return nil, "", fmt.Errorf("-ttl %d: %s needs a positive TTL", ttl, name)
	}
	switch name {
	case "none":
		// Protocol-less world: membership and throughput only, no query,
		// no judgment (the Outcome/Run/Inferred result fields stay zero).
		return nil, "", nil
	case "flood-ttl":
		return func() otq.Protocol { return &otq.FloodTTL{TTL: ttl, MaxLatency: 2} }, core.ProtoFloodTTL, nil
	case "flood-repeat":
		return func() otq.Protocol {
			return &otq.RepeatedFlood{TTL: ttl, MaxLatency: 2, MaxRounds: 10, QuietRounds: 2}
		}, core.ProtoRepeatedFlood, nil
	case "tree-echo":
		return func() otq.Protocol {
			return &otq.TreeEcho{DetectDepartures: true, CheckInterval: 4}
		}, core.ProtoTreeEcho, nil
	case "echo-wave":
		return func() otq.Protocol {
			return &otq.EchoWave{RescanInterval: 3, QuietFor: 60, MaxRescans: 5000}
		}, core.ProtoEchoWave, nil
	case "expanding-ring":
		return func() otq.Protocol { return &otq.ExpandingRing{MaxLatency: 2, MaxTTL: 64} }, core.ProtoExpandingRing, nil
	case "gossip-push-sum":
		return func() otq.Protocol { return &otq.GossipPushSum{RoundInterval: 2, Rounds: 100, Seed: 11} }, core.ProtoGossip, nil
	default:
		return nil, "", fmt.Errorf("unknown protocol %q", name)
	}
}
