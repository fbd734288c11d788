package harness

import (
	"os"
	"strings"
	"testing"

	"eventpf/internal/workloads"
)

// TestExperimentTablesGolden pins every table byte for byte. The golden file
// holds the 14 bodies of `ppftables -scale 0.02` in registry order, each
// followed by a blank line (ppftables' output minus its `== id … ==` header
// lines), as generated before the figures became table-driven; it is not
// regenerated by a flag, because a refactor of the figure code must not move
// it and a simulator change shows up in TestGoldenResults first.
//
// All experiments run on one suite, as ppftables runs them, so the memo
// sharing between figures is covered too: every simulation the suite starts
// is a memo entry, and the 14 tables take 201 of them. -short skips the two
// experiments that need the whole static-scheme matrix.
func TestExperimentTablesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/tables_scale0.02.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(raw), "\n\n")
	want = want[:len(want)-1] // SplitAfter leaves an empty tail
	if len(want) != len(Experiments) {
		t.Fatalf("golden has %d tables, registry has %d experiments", len(want), len(Experiments))
	}
	s := NewSuite(Options{Scale: 0.02})
	for i, e := range Experiments {
		if testing.Short() && (e.ID == "fig7" || e.ID == "fig12") {
			continue
		}
		got, err := e.Table(s)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got+"\n" != want[i] {
			t.Errorf("%s differs from golden\n got:\n%s\nwant:\n%s", e.ID, got, want[i])
		}
		if e.ID == "fig12" {
			checkFig12Claims(t, s) // memo hits only: the table just ran every pair
		}
	}
	if _, misses := s.MemoStats(); !testing.Short() && misses != 201 {
		t.Errorf("the 14 tables simulated %d configurations, want 201", misses)
	}
}

// checkFig12Claims checks the two quality claims DESIGN §18.6 makes for the
// adaptive controller: on PhaseMix, the phase alternator built for it, it
// reaches at least 95% of the best static in hindsight; and over Figure 12
// its geomean is above every fixed-function static's.
func checkFig12Claims(t *testing.T, s *Suite) {
	t.Helper()
	rows, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	var adaptive []float64
	statics := map[Scheme][]float64{}
	for _, r := range rows {
		adaptive = append(adaptive, r.Adaptive)
		for sch, v := range r.Static {
			statics[sch] = append(statics[sch], v)
		}
		if r.Benchmark == workloads.PhaseMix.Name && r.Adaptive < 0.95*r.Oracle {
			t.Errorf("PhaseMix: adaptive %.3fx is below 95%% of the oracle's %.3fx (%s)", r.Adaptive, r.Oracle, r.OracleScheme)
		}
	}
	ad := geomean(adaptive)
	for _, sch := range []Scheme{Stride, GHBRegular, GHBLarge, RPT, GHBDelta, TSKID} {
		if g := geomean(statics[sch]); !(ad > g) {
			t.Errorf("fig12: adaptive geomean %.3fx is not above %s's %.3fx", ad, sch, g)
		}
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("experiment id %q registered twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestDesignIndexNamesEveryExperiment keeps DESIGN.md §6 (the experiment
// index) in step with the registry: every id must appear there as the
// `-exp <id>` that regenerates it.
func TestDesignIndexNamesEveryExperiment(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 6. ")
	end := strings.Index(doc, "\n## 7. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §6 between \"## 6. \" and \"## 7. \"")
	}
	index := doc[start:end]
	for _, e := range Experiments {
		if !strings.Contains(index, "-exp "+e.ID+"`") {
			t.Errorf("DESIGN.md §6 has no row regenerated by `-exp %s`", e.ID)
		}
	}
}
