package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"eventpf/internal/workloads"
)

// figScale keeps figure-regeneration tests fast; shapes are asserted at
// larger scale by the directional tests and EXPERIMENTS.md runs.
const figScale = 0.02

func TestFig7StructureAndFormatting(t *testing.T) {
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.Fig7()
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
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.Fig8()
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
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.Fig10()
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
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.Fig11()
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

// TestSweepForkedMatchesFullRuns pins the sweep helper's exactness claim:
// the Figure 9(a) default-clock point, obtained as a continuation forked
// from the shared warm-up, is byte-identical to an uninterrupted Run.
func TestSweepForkedMatchesFullRuns(t *testing.T) {
	b := workloads.HJ2
	opt := Options{Scale: goldenScale}
	s := NewSuite(opt)
	if err := s.sweepForked(b, 0, Fig9aClocks); err != nil {
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
	straight, err := Run(b, Manual, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, swept), encode(t, straight)) {
		t.Errorf("forked default-clock point differs from a full run: %d vs %d cycles", swept.Cycles, straight.Cycles)
	}
}

func TestInstrOverheadPositive(t *testing.T) {
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.InstrOverhead()
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
	s := NewSuite(Options{Scale: figScale})
	rows, err := s.ExtraMem()
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
