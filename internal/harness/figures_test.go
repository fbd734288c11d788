package harness

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// figScale keeps figure-regeneration tests fast; shapes are asserted at
// larger scale by the directional tests and EXPERIMENTS.md runs.
const figScale = 0.02

// figSuite is one suite at figScale, built on first use and shared by the
// tests that only read figures from it, so a run two figures need is
// simulated once. A test that counts memo hits or compares a cold suite
// with a warm one makes its own.
var figSuite = sync.OnceValue(func() *Suite { return NewSuite(Options{Scale: figScale}) })

func TestFig7StructureAndFormatting(t *testing.T) {
	rows, err := figSuite().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All) {
		t.Fatalf("rows = %d, want %d", len(rows), len(workloads.All))
	}
	for _, r := range rows {
		for _, sch := range Schemes {
			v, ok := r.Speedup[sch]
			if !ok {
				t.Errorf("%s missing %s", r.Benchmark, sch)
				continue
			}
			if r.Benchmark == "PageRank" && (sch == Software || sch == Converted) {
				if !math.IsNaN(v) {
					t.Errorf("PageRank %s should be a missing bar", sch)
				}
				continue
			}
			if math.IsNaN(v) || v <= 0 {
				t.Errorf("%s/%s speedup = %v", r.Benchmark, sch, v)
			}
		}
	}
	out := FormatFig7(rows)
	for _, b := range workloads.All {
		if !strings.Contains(out, b.Name) {
			t.Errorf("formatted table missing %s", b.Name)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Error("formatted table missing geomean row")
	}
}

func TestFig8ValuesInRange(t *testing.T) {
	rows, err := figSuite().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"utilisation": r.Utilisation,
			"l1-nopf":     r.L1HitNoPF, "l1-pf": r.L1HitPF,
			"l2-nopf": r.L2HitNoPF, "l2-pf": r.L2HitPF,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s %s = %v out of [0,1]", r.Benchmark, name, v)
			}
		}
	}
	if out := FormatFig8(rows); !strings.Contains(out, "pf-util") {
		t.Error("format header missing")
	}
}

func TestFig10QuartilesOrdered(t *testing.T) {
	rows, err := figSuite().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Activity) != 12 {
			t.Errorf("%s has %d PPUs, want 12", r.Benchmark, len(r.Activity))
		}
		if !(r.Min <= r.Q1 && r.Q1 <= r.Median && r.Median <= r.Q3 && r.Q3 <= r.Max) {
			t.Errorf("%s quartiles out of order: %+v", r.Benchmark, r)
		}
		// Lowest-id-first scheduling: PPU 0 must be the busiest.
		for i, a := range r.Activity {
			if a > r.Activity[0]+1e-9 {
				t.Errorf("%s: PPU %d busier than PPU 0", r.Benchmark, i)
			}
		}
	}
}

func TestFig11AllRowsPresent(t *testing.T) {
	rows, err := figSuite().Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Blocked <= 0 || r.Events <= 0 {
			t.Errorf("%s: blocked=%v events=%v", r.Benchmark, r.Blocked, r.Events)
		}
	}
}

// TestAblationsReturnsEveryCell is the regression test for the MSHR-full
// livelock: the l1-mshrs=24 cell used to strand L1 miss registers behind
// prefetch fill requests the L2 dropped, so Ablations never returned.
func TestAblationsReturnsEveryCell(t *testing.T) {
	rows, err := NewSuite(Options{Scale: figScale}).Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.Speedup) || r.Speedup <= 0 {
			t.Errorf("%s=%d speedup = %v", r.Parameter, r.Value, r.Speedup)
		}
	}
}

// TestSensitivityCellsAreMemoEntries: the ablation and context-switch cells
// go through the memo like every other run. On a suite that already holds the
// four Table-1 runs they are mutations of, the two experiments start exactly
// the eleven simulations whose configuration differs from Table 1 (eight
// ablation cells, three switch intervals), and the rows are those of a suite
// that runs the two experiments cold.
func TestSensitivityCellsAreMemoEntries(t *testing.T) {
	type tables struct {
		abl []AblationRow
		ctx []ContextSwitchRow
	}
	render := func(s *Suite) (tb tables) {
		t.Helper()
		var err error
		if tb.abl, err = s.Ablations(); err != nil {
			t.Fatal(err)
		}
		if tb.ctx, err = s.ContextSwitches(); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	warm := NewSuite(Options{Scale: figScale})
	for _, b := range []*workloads.Benchmark{workloads.HJ8, workloads.IntSort} {
		for _, sch := range []Scheme{NoPF, Manual} {
			if _, err := warm.Run(Pair{Bench: b, Scheme: sch}); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, before := warm.MemoStats()
	got := render(warm)
	if _, after := warm.MemoStats(); after-before != 11 {
		t.Errorf("Ablations + ContextSwitches started %d simulations on a warm suite, want 11", after-before)
	}
	want := render(NewSuite(Options{Scale: figScale}))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm-suite rows differ from cold-suite rows:\n got %+v\nwant %+v", got, want)
	}
}

// TestMutatedConfigIsOneEntry pins the memo key of a run whose machine is not
// Table 1's: measure and sweep name it alike, a different mutation is a
// different entry, and a Config that builds Table 1's machine keys like none.
func TestMutatedConfigIsOneEntry(t *testing.T) {
	s := NewSuite(Options{Scale: testScale})
	b := workloads.HJ2
	cfg := system.DefaultConfig()
	cfg.Prefetcher.ObsQueue = 10
	opt := s.withConfig(cfg)
	if _, err := s.measure(b, Manual, opt); err != nil {
		t.Fatal(err)
	}
	if err := s.sweep(b, Manual, s.withConfig(system.DefaultConfig()), 1000, []Options{s.withConfig(cfg)}); err != nil {
		t.Fatal(err)
	}
	if _, misses := s.MemoStats(); misses != 1 {
		t.Errorf("one mutated Config through measure and sweep: %d entries, want 1", misses)
	}
	other := cfg
	other.Prefetcher.ObsQueue = 20
	if s.key(b, Manual, s.withConfig(other)) == s.key(b, Manual, opt) {
		t.Error("two different mutations share a key")
	}
	for _, sch := range []Scheme{NoPF, Manual} {
		p := Pair{Bench: b, Scheme: sch}
		if got := s.key(b, sch, s.withConfig(system.DefaultConfig())); got != s.Key(p) {
			t.Errorf("%s: Config = DefaultConfig() keys as %q, nil as %q", sch, got, s.Key(p))
		}
	}
	// ghb-large's big sizing is a default an explicit Config switches off, so
	// there the two are different machines.
	if s.key(b, GHBLarge, s.withConfig(system.DefaultConfig())) == s.Key(Pair{Bench: b, Scheme: GHBLarge}) {
		t.Error("ghb-large under an explicit default Config shares the key of its 1 GiB default")
	}
}

// TestSweepForkedMatchesFullRuns pins the sweep helper's exactness claim:
// the Figure 9(a) default-clock point, obtained as a continuation forked
// from the shared warm-up, is byte-identical to an uninterrupted Run.
func TestSweepForkedMatchesFullRuns(t *testing.T) {
	b := workloads.HJ2
	s := NewSuite(Options{Scale: goldenScale})
	if _, err := s.clockSweep(b, 0, Fig9aClocks); err != nil {
		t.Fatal(err)
	}
	_, before := s.MemoStats()
	swept, err := s.Run(Pair{Bench: b, Scheme: Manual})
	if err != nil {
		t.Fatal(err)
	}
	if _, after := s.MemoStats(); after != before {
		t.Fatal("default-clock point was not filled by the sweep")
	}
	if straight := mustAt(t, runKey{b.Name, Manual, goldenScale, plain}); !bytes.Equal(encode(t, swept), straight.enc) {
		t.Errorf("forked default-clock point differs from a full run: %d vs %d cycles", swept.Cycles, straight.res.Cycles)
	}
}

func TestInstrOverheadPositive(t *testing.T) {
	rows, err := figSuite().InstrOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // PageRank has no software variant
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		if r.IncreasePct <= 0 {
			t.Errorf("%s: software prefetch added no instructions (%+.0f%%)",
				r.Benchmark, r.IncreasePct)
		}
	}
}

func TestExtraMemReported(t *testing.T) {
	rows, err := figSuite().ExtraMem()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BaseReads <= 0 || r.PFReads <= 0 {
			t.Errorf("%s: dram reads base=%d pf=%d", r.Benchmark, r.BaseReads, r.PFReads)
		}
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(Options{Scale: figScale})
	a, err := s.Run(Pair{Bench: workloads.HJ2, Scheme: NoPF})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(Pair{Bench: workloads.HJ2, Scheme: NoPF})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Error("cache returned a different result")
	}
	if len(s.cache) != 1 {
		t.Errorf("cache has %d entries, want 1", len(s.cache))
	}
}

func TestTable1MentionsEveryStructure(t *testing.T) {
	out := Table1(Options{})
	for _, want := range []string{"Core", "L1D", "L2", "TLB", "DRAM", "Prefetch", "Stride", "GHB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ListsAllBenchmarks(t *testing.T) {
	out := Table2()
	for _, b := range workloads.All {
		if !strings.Contains(out, b.Name) {
			t.Errorf("Table2 missing %s", b.Name)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean(nil) should be NaN")
	}
}
