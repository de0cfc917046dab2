package fault

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Parse reads a fault plan from its compact command-line form: clauses
// separated by ';', each "kind:key=value,...@from-to". The window suffix
// is optional ("@from-" or "@from" leaves it open-ended; omitting it
// means always active). A "seed=N" segment sets the plan seed. Example:
//
//	dup:p=0.2@100-500;burst:pgb=0.05,pbg=0.3,lossbad=0.9;spike:nodes=1+2+3,delay=10@200-400;blackout:pair=1>2@100-200;crash:nodes=4,recover=50@250;seed=42
//
// Byzantine clauses use the same grammar:
//
//	corrupt:nodes=3+7,p=0.25@50-;replay:p=0.3,window=12;forge:nodes=7,as=5,p=0.3;equiv:nodes=3,peers=2+5,p=1;seed=7
//
// and the churn clause pairs an announced leave with a timed return:
//
//	rejoin:nodes=3,down=60,reset=1@400  (or sybil=1003 for fresh identities)
//
// and the reconfiguration clause drives live stack-epoch rounds (one
// timed round, or a storm with count/every):
//
//	reconfig:nodes=1,rotate=1,adaptive=1@200
//	reconfig:every=80,count=4,rotate=1,retain=64@120
//
// and the membership attack rewrites the chosen senders' PEX exchanges
// (rate is the per-exchange probability; sybils fabricated identities
// from base up, dead resurrected departures, target the hub-bias victim):
//
//	poison:nodes=4+9,rate=1,sybils=3,base=1000,dead=1,target=2@24-
//
// The returned plan is validated; String renders it back in canonical
// form, and Parse(p.String()) reproduces p exactly.
func Parse(s string) (*Plan, error) {
	pl := &Plan{}
	for _, seg := range strings.Split(s, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(seg, "seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", rest, err)
			}
			pl.Seed = seed
			continue
		}
		c, err := parseClause(seg)
		if err != nil {
			return nil, err
		}
		pl.Clauses = append(pl.Clauses, c)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

func parseClause(seg string) (Clause, error) {
	var c Clause
	body, window, hasWindow := strings.Cut(seg, "@")
	kind, params, _ := strings.Cut(body, ":")
	c.Kind = Kind(kind)
	if hasWindow {
		fromStr, toStr, ranged := strings.Cut(window, "-")
		from, err := strconv.ParseInt(fromStr, 10, 64)
		if err != nil {
			return c, fmt.Errorf("fault: bad window start in %q: %v", seg, err)
		}
		c.From = sim.Time(from)
		if ranged && toStr != "" {
			to, err := strconv.ParseInt(toStr, 10, 64)
			if err != nil {
				return c, fmt.Errorf("fault: bad window end in %q: %v", seg, err)
			}
			c.To = sim.Time(to)
		}
	}
	if params == "" {
		return c, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("fault: parameter %q in %q is not key=value", kv, seg)
		}
		if err := c.setParam(key, val); err != nil {
			return c, fmt.Errorf("fault: %v in %q", err, seg)
		}
	}
	return c, nil
}

// allowedKeys lists each kind's parameters; Parse rejects a key on the
// wrong kind so every accepted parameter survives the canonical String
// form (a silently dropped key would break Parse/String round-tripping).
var allowedKeys = map[Kind]map[string]bool{
	KindDuplicate: {"p": true, "count": true},
	KindBurst:     {"pgb": true, "pbg": true, "lossgood": true, "lossbad": true},
	KindReorder:   {"p": true, "window": true},
	KindSpike:     {"nodes": true, "delay": true},
	KindBlackout:  {"pair": true},
	KindCrash:     {"nodes": true, "recover": true},
	KindRejoin:    {"nodes": true, "down": true, "reset": true, "sybil": true},
	KindReconfig:  {"nodes": true, "every": true, "count": true, "rotate": true, "adaptive": true, "durable": true, "retain": true, "fanout": true},
	KindCorrupt:   {"nodes": true, "p": true},
	KindReplay:    {"nodes": true, "p": true, "window": true},
	KindForge:     {"nodes": true, "as": true, "p": true},
	KindEquiv:     {"nodes": true, "peers": true, "p": true},
	KindCollude:   {"nodes": true, "peers": true, "groups": true, "p": true, "chaff": true, "chafffrom": true, "chaffevery": true, "droppull": true},
	KindPoison:    {"nodes": true, "rate": true, "sybils": true, "base": true, "dead": true, "target": true},
}

func (c *Clause) setParam(key, val string) error {
	if !allowedKeys[c.Kind][key] {
		return fmt.Errorf("parameter %q not valid for %q clauses", key, c.Kind)
	}
	parseF := func() (float64, error) { return strconv.ParseFloat(val, 64) }
	parseT := func() (sim.Time, error) {
		n, err := strconv.ParseInt(val, 10, 64)
		return sim.Time(n), err
	}
	var err error
	switch key {
	case "p", "rate":
		c.P, err = parseF()
	case "count":
		c.Count, err = strconv.Atoi(val)
	case "window":
		c.Window, err = parseT()
	case "delay":
		c.Delay, err = parseT()
	case "recover":
		c.RecoverAfter, err = parseT()
	case "down":
		c.Down, err = parseT()
	case "every":
		c.Every, err = parseT()
	case "rotate":
		c.Rotate, err = strconv.ParseBool(val)
	case "adaptive":
		c.AdaptiveFlip, err = strconv.ParseBool(val)
	case "durable":
		c.DurableFlip, err = strconv.ParseBool(val)
	case "retain":
		c.RetainTo, err = strconv.Atoi(val)
	case "fanout":
		c.FanoutTo, err = strconv.Atoi(val)
	case "reset":
		c.Reset, err = strconv.ParseBool(val)
	case "sybil", "base":
		c.Sybil, err = parseID(val)
	case "sybils":
		c.Sybils, err = strconv.Atoi(val)
	case "dead":
		c.Dead, err = strconv.Atoi(val)
	case "target":
		c.Target, err = parseID(val)
	case "droppull":
		c.DropPull, err = strconv.ParseBool(val)
	case "groups":
		c.Groups, err = strconv.Atoi(val)
	case "chaff":
		c.Chaff, err = strconv.Atoi(val)
	case "chafffrom":
		c.ChaffFrom, err = parseT()
	case "chaffevery":
		c.ChaffEvery, err = parseT()
	case "pgb":
		c.PGB, err = parseF()
	case "pbg":
		c.PBG, err = parseF()
	case "lossgood":
		c.LossGood, err = parseF()
	case "lossbad":
		var v float64
		if v, err = parseF(); err == nil {
			c.LossBad = &v
		}
	case "nodes":
		for _, part := range strings.Split(val, "+") {
			id, perr := parseID(part)
			if perr != nil {
				return fmt.Errorf("bad node id %q: %v", part, perr)
			}
			c.Nodes = append(c.Nodes, id)
		}
	case "peers":
		for _, part := range strings.Split(val, "+") {
			id, perr := parseID(part)
			if perr != nil {
				return fmt.Errorf("bad peer id %q: %v", part, perr)
			}
			c.Peers = append(c.Peers, id)
		}
	case "as":
		id, perr := parseID(val)
		if perr != nil {
			return fmt.Errorf("bad claimed sender %q: %v", val, perr)
		}
		c.As = &id
	case "pair":
		fromStr, toStr, ok := strings.Cut(val, ">")
		if !ok {
			return fmt.Errorf("pair %q is not from>to", val)
		}
		from, e1 := parseID(fromStr)
		to, e2 := parseID(toStr)
		if e1 != nil || e2 != nil {
			return fmt.Errorf("bad pair %q: %v", val, cmp.Or(e1, e2))
		}
		c.Pair = &[2]graph.NodeID{from, to}
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	if err != nil {
		return fmt.Errorf("bad value for %s: %v", key, err)
	}
	return nil
}

// parseID parses a decimal identity, rejecting values outside
// [0, graph.MaxNodeID] instead of truncating them.
func parseID(s string) (graph.NodeID, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return graph.WireID(uint64(n))
}

func fmtF(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fmtNodes(ids []graph.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(int64(id), 10)
	}
	return strings.Join(parts, "+")
}

// String renders the clause in the canonical form Parse accepts.
func (c Clause) String() string {
	var params []string
	add := func(key, val string) { params = append(params, key+"="+val) }
	switch c.Kind {
	case KindDuplicate:
		add("p", fmtF(c.P))
		if c.Count != 0 {
			add("count", strconv.Itoa(c.Count))
		}
	case KindBurst:
		add("pgb", fmtF(c.PGB))
		add("pbg", fmtF(c.PBG))
		if c.LossGood != 0 {
			add("lossgood", fmtF(c.LossGood))
		}
		if c.LossBad != nil {
			add("lossbad", fmtF(*c.LossBad))
		}
	case KindReorder:
		add("p", fmtF(c.P))
		add("window", strconv.FormatInt(int64(c.Window), 10))
	case KindSpike:
		if len(c.Nodes) > 0 {
			add("nodes", fmtNodes(c.Nodes))
		}
		add("delay", strconv.FormatInt(int64(c.Delay), 10))
	case KindBlackout:
		if c.Pair != nil {
			add("pair", strconv.FormatInt(int64(c.Pair[0]), 10)+">"+strconv.FormatInt(int64(c.Pair[1]), 10))
		}
	case KindCrash:
		add("nodes", fmtNodes(c.Nodes))
		if c.RecoverAfter != 0 {
			add("recover", strconv.FormatInt(int64(c.RecoverAfter), 10))
		}
	case KindRejoin:
		add("nodes", fmtNodes(c.Nodes))
		add("down", strconv.FormatInt(int64(c.Down), 10))
		if c.Reset {
			add("reset", "1")
		}
		if c.Sybil != 0 {
			add("sybil", strconv.FormatInt(int64(c.Sybil), 10))
		}
	case KindReconfig:
		if len(c.Nodes) > 0 {
			add("nodes", fmtNodes(c.Nodes))
		}
		if c.Every != 0 {
			add("every", strconv.FormatInt(int64(c.Every), 10))
		}
		if c.Count != 0 {
			add("count", strconv.Itoa(c.Count))
		}
		if c.Rotate {
			add("rotate", "1")
		}
		if c.AdaptiveFlip {
			add("adaptive", "1")
		}
		if c.DurableFlip {
			add("durable", "1")
		}
		if c.RetainTo != 0 {
			add("retain", strconv.Itoa(c.RetainTo))
		}
		if c.FanoutTo != 0 {
			add("fanout", strconv.Itoa(c.FanoutTo))
		}
	case KindCorrupt:
		if len(c.Nodes) > 0 {
			add("nodes", fmtNodes(c.Nodes))
		}
		add("p", fmtF(c.P))
	case KindReplay:
		if len(c.Nodes) > 0 {
			add("nodes", fmtNodes(c.Nodes))
		}
		add("p", fmtF(c.P))
		if c.Window != 0 {
			add("window", strconv.FormatInt(int64(c.Window), 10))
		}
	case KindForge:
		if len(c.Nodes) > 0 {
			add("nodes", fmtNodes(c.Nodes))
		}
		if c.As != nil {
			add("as", strconv.FormatInt(int64(*c.As), 10))
		}
		add("p", fmtF(c.P))
	case KindEquiv:
		add("nodes", fmtNodes(c.Nodes))
		add("peers", fmtNodes(c.Peers))
		add("p", fmtF(c.P))
	case KindCollude:
		add("nodes", fmtNodes(c.Nodes))
		add("peers", fmtNodes(c.Peers))
		if c.Groups != 0 {
			add("groups", strconv.Itoa(c.Groups))
		}
		add("p", fmtF(c.P))
		if c.Chaff != 0 {
			add("chaff", strconv.Itoa(c.Chaff))
		}
		if c.ChaffFrom != 0 {
			add("chafffrom", strconv.FormatInt(int64(c.ChaffFrom), 10))
		}
		if c.ChaffEvery != 0 {
			add("chaffevery", strconv.FormatInt(int64(c.ChaffEvery), 10))
		}
		if c.DropPull {
			add("droppull", "1")
		}
	case KindPoison:
		add("nodes", fmtNodes(c.Nodes))
		add("rate", fmtF(c.P))
		if c.Sybils != 0 {
			add("sybils", strconv.Itoa(c.Sybils))
		}
		if c.Sybil != 0 {
			add("base", strconv.FormatInt(int64(c.Sybil), 10))
		}
		if c.Dead != 0 {
			add("dead", strconv.Itoa(c.Dead))
		}
		if c.Target != 0 {
			add("target", strconv.FormatInt(int64(c.Target), 10))
		}
	}
	s := string(c.Kind)
	if len(params) > 0 {
		s += ":" + strings.Join(params, ",")
	}
	if c.From != 0 || c.To != 0 {
		s += "@" + strconv.FormatInt(int64(c.From), 10) + "-"
		if c.To != 0 {
			s += strconv.FormatInt(int64(c.To), 10)
		}
	}
	return s
}

// String renders the plan in the canonical command-line form.
func (pl *Plan) String() string {
	segs := make([]string, 0, len(pl.Clauses)+1)
	for _, c := range pl.Clauses {
		segs = append(segs, c.String())
	}
	if pl.Seed != 0 {
		segs = append(segs, "seed="+strconv.FormatUint(pl.Seed, 10))
	}
	return strings.Join(segs, ";")
}

// Summary counts the plan's clauses per kind, e.g. "2 burst + 1 crash".
func (pl *Plan) Summary() string {
	if len(pl.Clauses) == 0 {
		return "no faults"
	}
	counts := map[Kind]int{}
	for _, c := range pl.Clauses {
		counts[c.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[Kind(k)], k)
	}
	return strings.Join(parts, " + ")
}
