package bench

import (
	"strings"
	"testing"
)

// Smoke tests: every experiment driver must run end-to-end at tiny
// iteration counts and produce a table with the expected columns and at
// least one data row. This guards the experiments against rot; the numbers
// are EXPERIMENTS.md's business.

// experimentCases holds one row per entry of Experiments: the columns (or,
// for fig5, fragments anywhere in the table) its output must carry.
var experimentCases = map[string]struct {
	want []string
	// anywhere matches want against the whole table, not the header.
	anywhere bool
	// slow experiments are skipped under -short.
	slow string
}{
	"e1":   {want: []string{"stores", "pattern", "MDM B/op"}},
	"e2":   {want: []string{"access", "clients", "ops/s"}},
	"e3":   {want: []string{"variant", "rules", "decision p50"}},
	"e4":   {want: []string{"cache entries", "hit %"}},
	"e5":   {want: []string{"entries", "mode", "bytes down/op"}},
	"e6":   {want: []string{"registrations", "speedup"}},
	"e7":   {want: []string{"gathering", "in budget"}},
	"e8":   {want: []string{"mode", "shield evals", "evals/event"}},
	"e9":   {want: []string{"architecture", "hops"}},
	"e10":  {want: []string{"items/side", "overlap"}},
	"e11":  {want: []string{"subscribers", "ops/s"}, slow: "seeding 10⁵ subscribers is slow"},
	"e12":  {want: []string{"request", "outcome"}},
	"e13":  {want: []string{"mirrors", "operation"}},
	"e14":  {want: []string{"routing", "far-replica delay"}},
	"e16":  {want: []string{"phase", "p95", "thru/s"}},
	"e17":  {want: []string{"phase", "p95", "thru/s"}},
	"e18":  {want: []string{"registrations", "replay", "first resolve"}},
	"e19":  {want: []string{"phase", "shed", "good/s"}},
	"fig5": {want: []string{"Wireless", "PSTN", "VoIP", "/user/presence", "/user/location"}, anywhere: true},
}

// runExperiment runs one Experiments entry at Iters 2 and checks its table
// against its experimentCases row.
func runExperiment(t *testing.T, id string) {
	t.Helper()
	tc, ok := experimentCases[id]
	if !ok {
		t.Fatalf("no experimentCases row for %s", id)
	}
	if tc.slow != "" && testing.Short() {
		t.Skip(tc.slow)
	}
	var exp *Experiment
	for i := range Experiments {
		if Experiments[i].ID == id {
			exp = &Experiments[i]
		}
	}
	if exp == nil {
		t.Fatalf("%s is not in Experiments", id)
	}
	tbl, err := exp.Run(Options{Iters: 2})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 { // title, header, separator, ≥1 row
		t.Fatalf("%s: too few lines:\n%s", id, out)
	}
	where := lines[1]
	if tc.anywhere {
		where = out
	}
	for _, frag := range tc.want {
		if !strings.Contains(where, frag) {
			t.Errorf("%s: missing %q:\n%s", id, frag, out)
		}
	}
}

// TestEveryExperimentHasACase keeps the table and the experiment list in
// step: a new experiment without a smoke row fails here.
func TestEveryExperimentHasACase(t *testing.T) {
	if len(Experiments) != len(experimentCases) {
		t.Errorf("%d experiments, %d experiment cases", len(Experiments), len(experimentCases))
	}
	for _, e := range Experiments {
		if _, ok := experimentCases[e.ID]; !ok {
			t.Errorf("experiment %s has no experimentCases row", e.ID)
		}
	}
}

// One top-level test per experiment, so `go test -run TestRunE7` selects a
// single experiment.

func TestRunE1(t *testing.T)       { runExperiment(t, "e1") }
func TestRunE2(t *testing.T)       { runExperiment(t, "e2") }
func TestRunE3(t *testing.T)       { runExperiment(t, "e3") }
func TestRunE4(t *testing.T)       { runExperiment(t, "e4") }
func TestRunE5(t *testing.T)       { runExperiment(t, "e5") }
func TestRunE6(t *testing.T)       { runExperiment(t, "e6") }
func TestRunE7(t *testing.T)       { runExperiment(t, "e7") }
func TestRunE8(t *testing.T)       { runExperiment(t, "e8") }
func TestRunE9(t *testing.T)       { runExperiment(t, "e9") }
func TestRunE10(t *testing.T)      { runExperiment(t, "e10") }
func TestRunE11(t *testing.T)      { runExperiment(t, "e11") }
func TestRunE12(t *testing.T)      { runExperiment(t, "e12") }
func TestRunE13(t *testing.T)      { runExperiment(t, "e13") }
func TestRunE14(t *testing.T)      { runExperiment(t, "e14") }
func TestRunE16Table(t *testing.T) { runExperiment(t, "e16") }
func TestRunE17(t *testing.T)      { runExperiment(t, "e17") }
func TestRunE18(t *testing.T)      { runExperiment(t, "e18") }
func TestRunE19(t *testing.T)      { runExperiment(t, "e19") }
func TestRunFig5(t *testing.T)     { runExperiment(t, "fig5") }
