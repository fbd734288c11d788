// Package eventpf_test carries one testing.B benchmark per table and figure
// of the paper's evaluation (§7). Each benchmark regenerates its experiment
// at a reduced scale and reports the headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's entire results section. Larger inputs (closer to
// the paper's) are available through cmd/ppftables -scale.
package eventpf_test

import (
	"math"
	"testing"

	"eventpf"
)

// benchScale keeps `go test -bench=.` to minutes; cmd/ppftables exposes the
// same experiments at any scale.
const benchScale = 0.05

func suite() *eventpf.Suite {
	return eventpf.NewSuite(eventpf.Options{Scale: benchScale})
}

// BenchmarkTable1Config reports the Table 1 machine configuration (a
// correctness anchor: the bench fails if the defaults drift).
func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	cfg := eventpf.DefaultMachineConfig()
	if cfg.Width != 3 || cfg.ROB != 40 || cfg.LQ != 16 || cfg.SQ != 32 {
		b.Fatalf("core config drifted: %+v", cfg)
	}
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.MSHRs != 12 || cfg.L2.SizeBytes != 1<<20 {
		b.Fatal("cache config drifted")
	}
	if cfg.Prefetcher.NumPPUs != 12 || cfg.Prefetcher.ObsQueue != 40 || cfg.Prefetcher.ReqQueue != 200 {
		b.Fatal("prefetcher config drifted")
	}
	for i := 0; i < b.N; i++ {
		_ = eventpf.DefaultMachineConfig()
	}
}

// BenchmarkTable2Benchmarks checks the benchmark roster.
func BenchmarkTable2Benchmarks(b *testing.B) {
	b.ReportAllocs()
	if len(eventpf.Benchmarks()) != 8 {
		b.Fatalf("want 8 benchmarks, have %d", len(eventpf.Benchmarks()))
	}
	for i := 0; i < b.N; i++ {
		_ = eventpf.Benchmarks()
	}
}

// BenchmarkFig7Speedups regenerates Figure 7 and reports the geometric-mean
// speedup of the manual scheme (the paper's 3.0x headline).
func BenchmarkFig7Speedups(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := suite()
		rows, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		prod, n := 1.0, 0
		for _, r := range rows {
			if v := r.Speedup[eventpf.Manual]; v > 0 {
				prod *= v
				n++
			}
		}
		b.ReportMetric(pow(prod, 1/float64(n)), "manual-geomean-x")
	}
}

// BenchmarkFig8aUtilisation regenerates Figure 8(a).
func BenchmarkFig8aUtilisation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.Utilisation
		}
		b.ReportMetric(sum/float64(len(rows)), "mean-utilisation")
	}
}

// BenchmarkFig8bHitRates regenerates Figure 8(b).
func BenchmarkFig8bHitRates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var dSum float64
		for _, r := range rows {
			dSum += r.L1HitPF - r.L1HitNoPF
		}
		b.ReportMetric(dSum/float64(len(rows)), "mean-L1-hit-gain")
	}
}

// BenchmarkFig9aClockSweep regenerates Figure 9(a): PPU frequency sweep.
func BenchmarkFig9aClockSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig9a()
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, r := range rows {
			gain += r.Speedup[2000] - r.Speedup[250]
		}
		b.ReportMetric(gain/float64(len(rows)), "mean-2GHz-vs-250MHz-gain")
	}
}

// BenchmarkFig9bPPUCount regenerates Figure 9(b): PPU count × clock for
// G500-CSR (the paper's count-frequency equivalence).
func BenchmarkFig9bPPUCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, err := suite().Fig9b()
		if err != nil {
			b.Fatal(err)
		}
		// Report the paper's equivalence check: 6 PPUs @1 GHz vs 12 @500 MHz.
		var a, c float64
		for _, cell := range cells {
			if cell.PPUs == 6 && cell.MHz == 1000 {
				a = cell.Speedup
			}
			if cell.PPUs == 12 && cell.MHz == 500 {
				c = cell.Speedup
			}
		}
		b.ReportMetric(a/c, "6@1GHz-over-12@500MHz")
	}
}

// BenchmarkFig10Activity regenerates Figure 10: PPU activity factors.
func BenchmarkFig10Activity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig10()
		if err != nil {
			b.Fatal(err)
		}
		maxAct := 0.0
		for _, r := range rows {
			if r.Max > maxAct {
				maxAct = r.Max
			}
		}
		b.ReportMetric(maxAct, "max-activity-factor")
	}
}

// BenchmarkFig11Blocking regenerates Figure 11: events vs blocking.
func BenchmarkFig11Blocking(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 10
		for _, r := range rows {
			if ratio := r.Blocked / r.Events; ratio < worst {
				worst = ratio
			}
		}
		b.ReportMetric(worst, "worst-blocked-over-events")
	}
}

// BenchmarkInstrOverhead regenerates the §7.1 software-prefetch dynamic
// instruction increases.
func BenchmarkInstrOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().InstrOverhead()
		if err != nil {
			b.Fatal(err)
		}
		maxPct := 0.0
		for _, r := range rows {
			if r.IncreasePct > maxPct {
				maxPct = r.IncreasePct
			}
		}
		b.ReportMetric(maxPct, "max-instr-increase-pct")
	}
}

// BenchmarkExtraMem regenerates the §7.2 extra-memory-traffic analysis.
func BenchmarkExtraMem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().ExtraMem()
		if err != nil {
			b.Fatal(err)
		}
		maxPct := 0.0
		for _, r := range rows {
			if r.ExtraPct > maxPct {
				maxPct = r.ExtraPct
			}
		}
		b.ReportMetric(maxPct, "max-extra-mem-pct")
	}
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// BenchmarkFig12Adaptive regenerates the adaptive-control study: the online
// controller against every static scheme and the hindsight oracle. The
// headline metric is the adaptive-over-oracle geomean ratio (1.0 = the
// controller matches a scheme picked per benchmark with perfect hindsight;
// 0.913 at this scale); switches-total confirms the controller actually
// adapted rather than riding one arm.
func BenchmarkFig12Adaptive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := suite().Fig12()
		if err != nil {
			b.Fatal(err)
		}
		logSum, n := 0.0, 0
		var switches int64
		for _, r := range rows {
			if r.Oracle > 0 && r.Adaptive > 0 {
				logSum += math.Log(r.Adaptive / r.Oracle)
				n++
			}
			switches += r.Switches
		}
		b.ReportMetric(math.Exp(logSum/float64(n)), "adaptive-over-oracle-geomean")
		b.ReportMetric(float64(switches), "switches-total")
	}
}
