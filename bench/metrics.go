package main

// metricDef declares one reported metric. BENCHMARK.json restates these
// tables for the driver; bench_test.go holds the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
	// Exact marks simulated statistics: bit-identical per seed, and
	// required to stay so under any speed-only change.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator feels per run: host time,
// host CPU, allocation and memory per recorded trace event. Failed
// executions are reported beside them as failed/attempted.
//
// The bounds are what the driver's acceptance protocol supports, not what
// a same-seed comparison resolves: it runs ten different seeds and wants
// their inter-quartile spread within the bound (a third of it, ideally).
// Host time on the shared reference VM drifts 10-20% over minutes, so the
// time bounds sit at the 25% cap; allocations spread 3-5% from seed to
// seed on the small-world workloads (README.md has the table).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "kev_per_s", Unit: "kEv/s", Better: higher, Bound: 0.25},
	{Name: "cpu_ns_per_ev", Unit: "ns/ev", Better: lower, Bound: 0.25},
	{Name: "allocs_per_ev", Unit: "allocs/ev", Better: lower, Bound: 0.15},
	{Name: "bytes_per_ev", Unit: "B/ev", Better: lower, Bound: 0.12},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
}

// ladderLayers lists the ladder layers in reporting order; every workload
// reports all of them, zero where its ladder has no such row.
var ladderLayers = []string{
	"node.reliable", "node.auth", "node.audit", "node.identity", "node.reconfig", "fault",
	"node.pexlayer", "tq", "otq.stream", "core.retain", "otq.batch",
}

// perLayer is built once: spans, ladder marginals, counts and ratios from
// the public totals, then the direct-call timings.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "exp.setup_s", Unit: "s", Better: lower},
		{Name: "sim.run_s", Unit: "s", Better: lower},
		{Name: "run.self_s", Unit: "s", Better: lower},
		{Name: "behavior.receive_s", Unit: "s", Better: lower},
		{Name: "behavior.receive_calls", Unit: "count", Better: lower, Exact: true},
		{Name: "core.sink_s", Unit: "s", Better: lower},
		{Name: "core.sink_calls", Unit: "count", Better: lower, Exact: true},
		{Name: "otq.check_s", Unit: "s", Better: lower},
		{Name: "core.infer_s", Unit: "s", Better: lower},
		{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
		{Name: "ladder.base_cpu_s", Unit: "s", Better: lower},
		{Name: "ladder.base_allocs", Unit: "count", Better: lower},
		{Name: "ladder.base_events", Unit: "count", Better: lower, Exact: true},
		{Name: "ladder.top_cpu_s", Unit: "s", Better: lower},
		{Name: "ladder.top_allocs", Unit: "count", Better: lower},
		{Name: "ladder.top_events", Unit: "count", Better: lower, Exact: true},
	}
	for _, layer := range ladderLayers {
		defs = append(defs,
			metricDef{Name: layer + ".marginal_cpu_s", Unit: "s", Better: lower},
			metricDef{Name: layer + ".marginal_allocs", Unit: "count", Better: lower},
			metricDef{Name: layer + ".marginal_events", Unit: "count", Better: lower, Exact: true})
	}
	count := func(better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: "count", Better: better, Exact: true})
		}
	}
	ratio := func(better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: "ratio", Better: better, Exact: true})
		}
	}
	count(lower, "core.msgs.sent", "core.msgs.dropped", "sim.fired")
	count(higher, "core.msgs.delivered")
	ratio(higher, "core.deliver_ratio")
	ratio(lower, "sim.fired_per_trace_ev")
	count(higher, "node.reliable.acked")
	count(lower, "node.reliable.retries", "node.reliable.giveups")
	ratio(lower, "node.reliable.retry_ratio")
	count(higher, "node.auth.accepted")
	count(lower, "node.auth.rejected", "node.auth.quarantines")
	count(lower, "node.audit.receipts_sent", "node.audit.receipts_carried", "node.audit.pulls_sent",
		"node.audit.pulls_relayed", "node.audit.evicted")
	count(higher, "node.reconfig.committed")
	count(lower, "node.reconfig.drains", "node.reconfig.drain_timeouts", "node.reconfig.stale_epoch_drops")
	count(lower, "node.identity.saves", "node.identity.restores")
	count(lower, "node.pexlayer.exchanges", "node.pexlayer.records_shipped", "node.pexlayer.bootstraps",
		"node.pexlayer.refreshes")
	count(higher, "node.pexlayer.records_merged")
	ratio(higher, "node.pexlayer.merge_ratio")
	count(lower, "tq.walks", "tq.probes", "tq.forwards", "tq.retries")
	count(higher, "tq.responses")
	ratio(higher, "tq.quorum_ratio")
	ratio(lower, "tq.msgs_per_op")
	for _, n := range []string{"pex.encode_ns_per_rec", "pex.decode_ns_per_rec", "pex.sign_ns", "pex.verify_ns",
		"core.record_full_ns", "core.record_countonly_ns", "sim.schedule_fire_ns"} {
		defs = append(defs, metricDef{Name: n, Unit: "ns", Better: lower})
	}
	return append(defs, metricDef{Name: "pex.codec_est_share", Unit: "ratio", Better: lower})
}()

// div is a/b with 0 for an absent layer's 0/0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cellCounts reads the count metrics off one executed cell.
func cellCounts(st simStats) map[string]float64 {
	f := func(n int) float64 { return float64(n) }
	cn := st.TQCounters
	return map[string]float64{
		"trace.events":                    f(st.Events),
		"core.msgs.sent":                  f(st.Messages.Sent),
		"core.msgs.delivered":             f(st.Messages.Delivered),
		"core.msgs.dropped":               f(st.Messages.Dropped),
		"node.reliable.acked":             f(st.Reliable.Acked),
		"node.reliable.retries":           f(st.Reliable.Retries),
		"node.reliable.giveups":           f(st.Reliable.GiveUps),
		"node.auth.accepted":              f(st.Auth.Accepted),
		"node.auth.rejected":              f(st.Auth.RejectedCorrupt + st.Auth.RejectedReplay),
		"node.auth.quarantines":           f(st.Auth.Quarantines),
		"node.audit.receipts_sent":        f(st.Audit.ReceiptsSent),
		"node.audit.receipts_carried":     f(st.Audit.ReceiptsCarried),
		"node.audit.pulls_sent":           f(st.Audit.PullsSent),
		"node.audit.pulls_relayed":        f(st.Audit.PullsRelayed),
		"node.audit.evicted":              f(st.Audit.Evicted),
		"node.reconfig.committed":         f(st.Reconfig.Committed),
		"node.reconfig.drains":            f(st.Reconfig.Drains),
		"node.reconfig.drain_timeouts":    f(st.Reconfig.DrainTimeouts),
		"node.reconfig.stale_epoch_drops": f(st.Reconfig.StaleEpochDrops),
		"node.identity.saves":             f(st.Identity.Saves),
		"node.identity.restores":          f(st.Identity.Restores),
		"node.pexlayer.exchanges":         f(st.Pex.Exchanges),
		"node.pexlayer.records_shipped":   f(st.Pex.RecordsShipped),
		"node.pexlayer.records_merged":    f(st.Pex.RecordsMerged),
		"node.pexlayer.bootstraps":        f(st.Pex.Bootstraps),
		"node.pexlayer.refreshes":         f(st.Pex.Refreshes),
		"tq.walks":                        f(cn.Walks),
		"tq.probes":                       f(cn.Probes),
		"tq.forwards":                     f(cn.Forwards),
		"tq.responses":                    f(cn.Responses),
		"tq.retries":                      f(cn.Retries),
		"tq.ops":                          f(st.TQOps),
		"tq.quorums":                      f(cn.WriteQuorums + cn.ReadQuorums),
		"tq.msgs":                         f(st.TQMsgs),
	}
}

// layerCounts sums the cells' counts and derives the useful/attempt
// ratios from the sums. trace.events and the tq.* bases stay in the map
// for the callers that need them; only declared names are reported.
func layerCounts(stats []simStats, fired uint64) map[string]float64 {
	m := map[string]float64{"sim.fired": float64(fired)}
	for _, st := range stats {
		for k, v := range cellCounts(st) {
			m[k] += v
		}
	}
	m["core.deliver_ratio"] = div(m["core.msgs.delivered"], m["core.msgs.sent"])
	m["sim.fired_per_trace_ev"] = div(m["sim.fired"], m["trace.events"])
	m["node.reliable.retry_ratio"] = div(m["node.reliable.retries"], m["node.reliable.acked"]+m["node.reliable.giveups"])
	m["node.pexlayer.merge_ratio"] = div(m["node.pexlayer.records_merged"], m["node.pexlayer.records_shipped"])
	m["tq.quorum_ratio"] = div(m["tq.quorums"], m["tq.ops"])
	m["tq.msgs_per_op"] = div(m["tq.msgs"], m["tq.ops"])
	return m
}
