package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/otq"
)

var quick = Config{Seeds: 2, Quick: true}

func TestExecuteDeterministic(t *testing.T) {
	sc := func() Scenario {
		return Scenario{
			Seed:    7,
			Overlay: ringOverlay,
			Churn: churn.Config{InitialPopulation: 12, Immortal: true,
				ArrivalRate: 0.1, Session: churn.ExpSessions(60)},
			Protocol: func() otq.Protocol {
				return &otq.EchoWave{RescanInterval: 3, QuietFor: 40, MaxRescans: 500}
			},
			MinLatency: 1, MaxLatency: 2,
			QueryAt: 50, Horizon: 800,
		}
	}
	a := Execute(sc())
	b := Execute(sc())
	if a.Outcome.String() != b.Outcome.String() {
		t.Fatalf("replays differ: %v vs %v", a.Outcome, b.Outcome)
	}
	if a.Messages != b.Messages {
		t.Fatalf("message stats differ: %+v vs %+v", a.Messages, b.Messages)
	}
}

func TestExecuteValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-horizon scenario did not panic")
		}
	}()
	Execute(Scenario{})
}

func TestQuerierIndexClamped(t *testing.T) {
	res := Execute(Scenario{
		Seed:    1,
		Overlay: meshOverlay,
		Churn:   churn.Config{InitialPopulation: 3, Immortal: true},
		Protocol: func() otq.Protocol {
			return &otq.FloodTTL{TTL: 1, MaxLatency: 2}
		},
		QueryAt: 5, Horizon: 100, QuerierIndex: 99,
	})
	if res.Querier != 3 {
		t.Fatalf("clamped querier = %d, want 3 (highest present)", res.Querier)
	}
}

// reportDigestPath pins the sha256 of every quick report (seeds 2), its
// context columns masked: the fence that keeps a refactor from moving
// any deterministic cell of any experiment. -update re-pins it together
// with testdata/trace_digests.json.
const reportDigestPath = "testdata/report_digests.json"

// maskedReport renders r with its table's context columns masked.
func maskedReport(r *Report) string { return r.render(r.Table.Masked()) }

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	got := map[string]string{}
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			rep := ex.Run(quick)
			if rep.ID != ex.ID {
				t.Fatalf("report ID %q, want %q", rep.ID, ex.ID)
			}
			out := rep.String()
			if !strings.Contains(out, rep.Title) || !strings.Contains(out, "Claim:") {
				t.Fatalf("report rendering incomplete:\n%s", out)
			}
			if len(strings.Split(out, "\n")) < 5 {
				t.Fatalf("report suspiciously short:\n%s", out)
			}
			if strings.Contains(out, "UNEXPECTED") {
				t.Fatalf("experiment reported an unexpected outcome:\n%s", out)
			}
			sum := sha256.Sum256([]byte(maskedReport(rep)))
			got[ex.ID] = hex.EncodeToString(sum[:])
		})
	}

	want := map[string]string{}
	raw, err := os.ReadFile(reportDigestPath)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if *updateDigests {
		maps.Copy(want, got)
		out, err := json.MarshalIndent(want, "", "  ")
		if err == nil {
			err = os.WriteFile(reportDigestPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if len(got) == len(All()) && len(want) != len(got) {
		t.Errorf("%s pins %d reports, the suite has %d", reportDigestPath, len(want), len(got))
	}
	for _, ex := range All() {
		if sum, ran := got[ex.ID]; ran && sum != want[ex.ID] {
			t.Errorf("%s: masked quick report digest %s, pinned %s", ex.ID, sum, want[ex.ID])
		}
	}
}

// TestExperimentsDocument runs the full suite (5 seeds, no quick mode)
// and compares each report with its block in EXPERIMENTS.md, context
// columns masked, so the document cannot drift from the code. The suite
// takes over a minute, so the test runs only when EXPERIMENTS_CHECK is
// set:
//
//	make experiments-check
func TestExperimentsDocument(t *testing.T) {
	if os.Getenv("EXPERIMENTS_CHECK") == "" {
		t.Skip("set EXPERIMENTS_CHECK=1 (make experiments-check) to run the full suite against EXPERIMENTS.md")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	type recorded struct{ title, block string }
	blocks := map[string]recorded{}
	for _, m := range regexp.MustCompile("(?ms)^## (E\\d+): (.*?)\n\n```\n(.*?)```").FindAllStringSubmatch(string(doc), -1) {
		blocks[m[1]] = recorded{m[2], m[3]}
	}
	for _, ex := range All() {
		t.Run(ex.ID, func(t *testing.T) {
			rec, ok := blocks[ex.ID]
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no block for %s", ex.ID)
			}
			rep := ex.Run(Config{})
			if rec.title != rep.Title {
				t.Errorf("EXPERIMENTS.md titles %s %q, the report %q", ex.ID, rec.title, rep.Title)
			}
			// The block is the report without its "== ID: title ==" line.
			_, fresh, _ := strings.Cut(maskedReport(rep), "\n")
			docText, docTable := splitReport(rec.block)
			freshText, freshTable := splitReport(fresh)
			want, got := tableCells(freshTable), tableCells(docTable)
			same := docText == freshText && len(got) == len(want)
			for r := 0; same && r < len(want); r++ {
				same = len(got[r]) == len(want[r])
				for c := 0; same && c < len(want[r]); c++ {
					same = want[r][c] == "~" || got[r][c] == want[r][c]
				}
			}
			if !same {
				t.Errorf("EXPERIMENTS.md's %s block:\n%s\nthe code's report, context masked:\n%s", ex.ID, rec.block, fresh)
			}
		})
	}
}

// splitReport parts a rendered report body — the claim, a blank line, the
// table, then the notes — into its table and the rest.
func splitReport(body string) (text, table string) {
	lines := strings.SplitAfter(body, "\n")
	end := 2
	for end < len(lines) && !strings.HasPrefix(lines[end], "note: ") {
		end++
	}
	return strings.Join(lines[:2], "") + strings.Join(lines[end:], ""), strings.Join(lines[2:end], "")
}

// tableCells cuts a table that stats.Table.String rendered into its
// header and rows of cells, at the columns the dash rule marks out.
func tableCells(table string) [][]string {
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if len(lines) < 2 {
		return nil
	}
	var starts []int
	for i, c := range lines[1] {
		if c == '-' && (i == 0 || lines[1][i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	cut := func(line string) []string {
		row := make([]string, len(starts))
		for i, from := range starts {
			to := len(line)
			if i+1 < len(starts) {
				to = min(to, starts[i+1])
			}
			if from < to {
				row[i] = strings.TrimSpace(line[from:to])
			}
		}
		return row
	}
	rows := [][]string{cut(lines[0])}
	for _, line := range lines[2:] {
		rows = append(rows, cut(line))
	}
	return rows
}

// Headline shape assertions on the cheap experiments.

func TestE1AllValid(t *testing.T) {
	rep := E1(quick)
	for _, line := range strings.Split(rep.Table.String(), "\n")[2:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		// Column 4 (0-based) is the ok rate.
		if fields[4] != "1" {
			t.Fatalf("E1 row not fully valid: %q", line)
		}
	}
}

func TestE3CrossoverAtTTL(t *testing.T) {
	rep := E3(quick)
	lines := strings.Split(strings.TrimRight(rep.Table.String(), "\n"), "\n")[2:]
	for _, line := range lines {
		f := strings.Fields(line)
		d, valid := f[0], f[3]
		switch d {
		case "4", "6", "8":
			if valid != "1" {
				t.Errorf("diameter %s <= TTL should be valid: %q", d, line)
			}
		case "10", "12", "16":
			if valid != "0" {
				t.Errorf("diameter %s > TTL should be invalid: %q", d, line)
			}
		}
	}
}

func TestE5ExpectationsMet(t *testing.T) {
	rep := E5(quick)
	lines := strings.Split(strings.TrimRight(rep.Table.String(), "\n"), "\n")[2:]
	for _, ln := range lines {
		fields := strings.Fields(ln)
		// The measured ok rate directly follows the expect column, which
		// holds the only "true"/"false" token in the row.
		for i, f := range fields {
			if (f == "true" || f == "false") && i+1 < len(fields) {
				rate := fields[i+1]
				if f == "true" && rate != "1" {
					t.Errorf("E5 expected-OK row has rate %s: %q", rate, ln)
				}
				if f == "false" && rate != "0" {
					t.Errorf("E5 expected-violation row has rate %s: %q", rate, ln)
				}
				break
			}
		}
	}
}
