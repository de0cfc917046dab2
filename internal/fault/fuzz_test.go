package fault

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

// FuzzParse checks the parser's two safety properties on arbitrary input:
// it never panics, and every plan it accepts survives both round trips —
// canonical String form and JSON — unchanged.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"dup:p=0.2@100-500",
		"burst:pgb=0.05,pbg=0.3,lossbad=0.9",
		"reorder:p=0.1,window=8@50-",
		"spike:nodes=1+2+3,delay=10@200-400",
		"blackout:pair=1>2@100-200",
		"crash:nodes=4,recover=50@250",
		"dup:p=0.2;crash:nodes=1+2@30;seed=42",
		"seed=18446744073709551615",
		"dup:p=1e-3,count=7@1-2",
		"spike:delay=3",
		"burst:pgb=0.5,pbg=0.5,lossgood=0.25,lossbad=0",
		"corrupt:p=0.25",
		"corrupt:nodes=3+7,p=0.25@50-",
		"replay:p=0.3,window=12",
		"forge:nodes=7,as=5,p=0.3",
		"equiv:nodes=3,peers=2+5,p=1",
		"corrupt:nodes=1,p=0.5;replay:p=0.2;forge:as=2,p=0.1;equiv:nodes=1,peers=3,p=1;seed=9",
		"collude:nodes=3,peers=1+5,groups=2,p=1",
		"collude:nodes=3+7,peers=1+5+9,groups=3,p=0.75,chaff=40,chafffrom=72,chaffevery=2@10-900;seed=24",
		"collude:nodes=3,peers=1+5,p=1,droppull=1",
		"rejoin:nodes=3,down=60,reset=1@400",
		"rejoin:nodes=3+9,down=40,sybil=1003@200-",
		"reconfig:nodes=1,rotate=1,adaptive=1@200",
		"reconfig:nodes=1+4,every=80,count=4,rotate=1,retain=64@120-",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := Parse(s)
		if err != nil {
			return
		}
		canon := pl.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q did not reparse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(pl, again) {
			t.Fatalf("string round trip changed the plan: %q -> %q -> %q", s, canon, again.String())
		}
		data, err := json.Marshal(pl)
		if err != nil {
			t.Fatalf("accepted plan %q did not marshal: %v", canon, err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("JSON of accepted plan %q did not decode: %v", canon, err)
		}
		if !reflect.DeepEqual(pl, back) {
			t.Fatalf("JSON round trip changed the plan: %q", canon)
		}
	})
}

// FuzzEquivSplit targets the equivocation clause's neighbor-split
// encoding — the two '+'-separated ID lists that say who lies (nodes) and
// who is lied to (peers). The parser must never panic on arbitrary list
// bodies, and whenever it accepts them, the clause must keep both lists
// exactly through the canonical form (a dropped or reordered ID would
// silently change which links the adversary owns).
func FuzzEquivSplit(f *testing.F) {
	for _, seed := range [][2]string{
		{"3", "2+5"},
		{"1+2+3", "4"},
		{"7", "7"},
		{"0", "18446744073709551615"},
		{"1++2", "3"},
		{"", "2"},
		{"-1", "2"},
		{"1+2", "2+1"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, nodes, peers string) {
		spec := "equiv:nodes=" + nodes + ",peers=" + peers + ",p=1"
		pl, err := Parse(spec)
		if err != nil {
			return
		}
		if len(pl.Clauses) != 1 {
			t.Fatalf("%q parsed into %d clauses", spec, len(pl.Clauses))
		}
		c := pl.Clauses[0]
		if len(c.Nodes) == 0 || len(c.Peers) == 0 {
			t.Fatalf("accepted equiv clause with an empty side: %q -> %+v", spec, c)
		}
		canon := pl.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q did not reparse: %v", canon, spec, err)
		}
		a := again.Clauses[0]
		if !reflect.DeepEqual(c.Nodes, a.Nodes) || !reflect.DeepEqual(c.Peers, a.Peers) {
			t.Fatalf("split lists changed across the round trip: %+v vs %+v", c, a)
		}
	})
}

// FuzzRejoinClause builds rejoin specs from arbitrary field values and
// checks the clause's invariants: the parser never panics, an accepted
// clause always has victims, a positive downtime, and never both the
// reset and sybil arms at once, and every accepted clause survives the
// canonical String form and the JSON form unchanged (a drifted Down or
// Sybil would silently move the attack).
func FuzzRejoinClause(f *testing.F) {
	f.Add("3", int64(60), false, int64(0), "400")
	f.Add("3+9", int64(40), true, int64(0), "400-500")
	f.Add("3", int64(40), false, int64(1003), "200-")
	f.Add("", int64(0), false, int64(-5), "")
	f.Add("1++2", int64(-7), true, int64(100), "x")
	f.Fuzz(func(t *testing.T, nodes string, down int64, reset bool, sybil int64, window string) {
		spec := "rejoin:nodes=" + nodes + ",down=" + itoa(down)
		if reset {
			spec += ",reset=1"
		}
		if sybil != 0 {
			spec += ",sybil=" + itoa(sybil)
		}
		if window != "" {
			spec += "@" + window
		}
		pl, err := Parse(spec)
		if err != nil {
			return
		}
		if len(pl.Clauses) != 1 {
			t.Fatalf("%q parsed into %d clauses", spec, len(pl.Clauses))
		}
		c := pl.Clauses[0]
		if len(c.Nodes) == 0 || c.Down <= 0 || c.Sybil < 0 || (c.Reset && c.Sybil != 0) {
			t.Fatalf("accepted invalid rejoin clause: %q -> %+v", spec, c)
		}
		canon := pl.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q did not reparse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(pl, again) {
			t.Fatalf("string round trip changed the plan: %q -> %q", spec, canon)
		}
		data, err := json.Marshal(pl)
		if err != nil {
			t.Fatalf("accepted plan %q did not marshal: %v", canon, err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("JSON of accepted plan %q did not decode: %v", data, err)
		}
		if !reflect.DeepEqual(pl, back) {
			t.Fatalf("JSON round trip changed the plan: %q", canon)
		}
	})
}

// FuzzReconfigClause builds reconfig specs from arbitrary field values
// and checks the clause's invariants: the parser never panics, an
// accepted clause always changes at least one stack knob, never pairs a
// multi-round storm with zero spacing, never carries a negative round
// count, spacing, retain cap, or fanout, and survives the canonical
// String form and the JSON form unchanged (a drifted Every or RetainTo
// would silently move or reshape the storm).
func FuzzReconfigClause(f *testing.F) {
	f.Add("1", int64(0), int64(0), true, false, false, int64(0), int64(0), "200")
	f.Add("1+4", int64(80), int64(4), true, false, false, int64(64), int64(0), "120-")
	f.Add("", int64(30), int64(2), false, true, true, int64(0), int64(4), "50-900")
	f.Add("2", int64(0), int64(3), true, false, false, int64(0), int64(0), "")
	f.Add("1++2", int64(-7), int64(-1), false, false, false, int64(-2), int64(-3), "x")
	f.Fuzz(func(t *testing.T, nodes string, every, count int64, rotate, adaptive, durable bool, retain, fanout int64, window string) {
		spec := "reconfig:"
		sep := ""
		addParam := func(kv string) { spec += sep + kv; sep = "," }
		if nodes != "" {
			addParam("nodes=" + nodes)
		}
		if every != 0 {
			addParam("every=" + itoa(every))
		}
		if count != 0 {
			addParam("count=" + itoa(count))
		}
		if rotate {
			addParam("rotate=1")
		}
		if adaptive {
			addParam("adaptive=1")
		}
		if durable {
			addParam("durable=1")
		}
		if retain != 0 {
			addParam("retain=" + itoa(retain))
		}
		if fanout != 0 {
			addParam("fanout=" + itoa(fanout))
		}
		if window != "" {
			spec += "@" + window
		}
		pl, err := Parse(spec)
		if err != nil {
			return
		}
		if len(pl.Clauses) != 1 {
			t.Fatalf("%q parsed into %d clauses", spec, len(pl.Clauses))
		}
		c := pl.Clauses[0]
		if !c.Rotate && !c.AdaptiveFlip && !c.DurableFlip && c.RetainTo == 0 && c.FanoutTo == 0 {
			t.Fatalf("accepted a reconfig clause that changes nothing: %q -> %+v", spec, c)
		}
		if c.Count < 0 || c.Every < 0 || c.RetainTo < 0 || c.FanoutTo < 0 {
			t.Fatalf("accepted negative reconfig knobs: %q -> %+v", spec, c)
		}
		if c.Count > 1 && c.Every == 0 {
			t.Fatalf("accepted a zero-spaced storm: %q -> %+v", spec, c)
		}
		canon := pl.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q did not reparse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(pl, again) {
			t.Fatalf("string round trip changed the plan: %q -> %q", spec, canon)
		}
		data, err := json.Marshal(pl)
		if err != nil {
			t.Fatalf("accepted plan %q did not marshal: %v", canon, err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("JSON of accepted plan %q did not decode: %v", data, err)
		}
		if !reflect.DeepEqual(pl, back) {
			t.Fatalf("JSON round trip changed the plan: %q", canon)
		}
	})
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// FuzzReceipt hammers the audit receipt's wire form — the one piece of
// evidence the equivocation adversary is most motivated to malform. Three
// properties must hold for arbitrary bytes and field values: decode never
// panics and accepts exactly 32-byte inputs whose sender is an identity
// (in [0, graph.MaxNodeID]), encode/decode round-trips
// every receipt bit-exactly (a lossy field would let two distinct
// fingerprints collapse into one and erase a contradiction), and a
// verifier is fooled by a signature only when it was honestly produced —
// in particular, flipping any field of a validly signed receipt must
// invalidate it.
func FuzzReceipt(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(3), uint64(1), uint64(0xdeadbeef), uint64(7))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(5), uint64(1)<<63, uint64(0x9e3779b97f4a7c15), uint64(1))
	f.Add(uint64(graph.MaxNodeID), uint64(2), uint64(3), uint64(4))
	f.Add(uint64(1)<<31, uint64(2), uint64(3), uint64(4))
	f.Fuzz(func(t *testing.T, sender, bseq, fp, junk uint64) {
		id, err := graph.WireID(sender)
		if err != nil {
			// A sender outside [0, MaxNodeID] is refused, never truncated.
			wire := node.EncodeReceipt(node.Receipt{BSeq: bseq, FP: fp, Sig: junk})
			binary.LittleEndian.PutUint64(wire, sender)
			if back, err := node.DecodeReceipt(wire); err == nil {
				t.Fatalf("sender %d decoded as %d", sender, back.Sender)
			}
			return
		}
		r := node.Receipt{Sender: id, BSeq: bseq, FP: fp, Sig: junk}
		wire := node.EncodeReceipt(r)
		if len(wire) != 32 {
			t.Fatalf("wire form is %d bytes, want 32", len(wire))
		}
		back, err := node.DecodeReceipt(wire)
		if err != nil {
			t.Fatalf("canonical wire form did not decode: %v", err)
		}
		if back != r {
			t.Fatalf("round trip changed the receipt: %+v -> %+v", r, back)
		}
		if _, err := node.DecodeReceipt(wire[:31]); err == nil {
			t.Fatal("truncated wire form decoded without error")
		}
		if _, err := node.DecodeReceipt(append(wire, 0)); err == nil {
			t.Fatal("oversized wire form decoded without error")
		}
		// A junk signature must only verify if it happens to be the honest
		// one; re-signing honestly must always verify, including across the
		// wire.
		signed := node.SignReceipt(id, bseq, fp)
		if !node.VerifyReceipt(signed) {
			t.Fatalf("honestly signed receipt failed verification: %+v", signed)
		}
		rewired, err := node.DecodeReceipt(node.EncodeReceipt(signed))
		if err != nil || !node.VerifyReceipt(rewired) {
			t.Fatalf("signed receipt did not survive the wire: %+v err=%v", rewired, err)
		}
		if node.VerifyReceipt(r) && r.Sig != signed.Sig {
			t.Fatalf("two distinct signatures verified for one statement: %x and %x", r.Sig, signed.Sig)
		}
		// Any single-field perturbation of a valid receipt must break it.
		for i, bad := range []node.Receipt{
			{Sender: signed.Sender + 1, BSeq: signed.BSeq, FP: signed.FP, Sig: signed.Sig},
			{Sender: signed.Sender, BSeq: signed.BSeq + 1, FP: signed.FP, Sig: signed.Sig},
			{Sender: signed.Sender, BSeq: signed.BSeq, FP: signed.FP + 1, Sig: signed.Sig},
			{Sender: signed.Sender, BSeq: signed.BSeq, FP: signed.FP, Sig: signed.Sig + 1},
		} {
			if node.VerifyReceipt(bad) {
				t.Fatalf("perturbation %d of a valid receipt still verified: %+v", i, bad)
			}
		}
	})
}
