package harness

import (
	"errors"
	"testing"

	"eventpf/internal/sim"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// testScale keeps unit-test runs small; the directional assertions use a
// slightly larger scale where needed.
const testScale = 0.04

// TestEveryBenchmarkEverySchemeComputesCorrectly is the central integration
// test: all 8 benchmarks under all schemes (plus the blocked mode), each
// validated against its pure-Go oracle. Prefetching must never change
// answers.
func TestEveryBenchmarkEverySchemeComputesCorrectly(t *testing.T) {
	all := append([]Scheme{NoPF}, Schemes...)
	all = append(all, ManualBlocked)
	for _, b := range workloads.All {
		for _, s := range all {
			t.Run(b.Name+"/"+s.String(), func(t *testing.T) {
				_, err := Run(b, s, Options{Scale: testScale})
				if errors.Is(err, ErrUnsupported) {
					if b.Name == "PageRank" && (s == Software || s == Converted) {
						return // the paper's missing bars
					}
					t.Fatalf("unexpectedly unsupported")
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestPageRankHasNoSoftwareVariant(t *testing.T) {
	_, err := Run(workloads.PageRank, Software, Options{Scale: testScale})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("PageRank software prefetch should be unsupported, got %v", err)
	}
}

func TestManualBeatsNoPFEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("directional assertions need a non-trivial scale")
	}
	for _, b := range workloads.All {
		base, err := Run(b, NoPF, Options{Scale: 0.12})
		if err != nil {
			t.Fatalf("%s/nopf: %v", b.Name, err)
		}
		man, err := Run(b, Manual, Options{Scale: 0.12})
		if err != nil {
			t.Fatalf("%s/manual: %v", b.Name, err)
		}
		sp := Speedup(base, man)
		if sp < 1.1 {
			t.Errorf("%s: manual speedup %.2fx, want ≥ 1.1x (base %d, manual %d cycles)",
				b.Name, sp, base.Cycles, man.Cycles)
		} else {
			t.Logf("%s: manual speedup %.2fx", b.Name, sp)
		}
	}
}

func TestBlockedSlowerThanEventsOnChainedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("directional assertion")
	}
	ev, err := Run(workloads.HJ8, Manual, Options{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Run(workloads.HJ8, ManualBlocked, Options{Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if bl.Cycles <= ev.Cycles {
		t.Errorf("HJ-8 blocked (%d cycles) not slower than event-triggered (%d)",
			bl.Cycles, ev.Cycles)
	}
}

func TestCompilerPassesConvertWhereExpected(t *testing.T) {
	cases := []struct {
		b          *workloads.Benchmark
		scheme     Scheme
		minKernels int
	}{
		{workloads.IntSort, Converted, 2},
		{workloads.HJ2, Converted, 2},
		{workloads.HJ8, Converted, 3},
		{workloads.ConjGrad, Converted, 2},
		{workloads.RandAcc, Converted, 2},
		{workloads.IntSort, Pragma, 2},
		{workloads.PageRank, Pragma, 2},
		{workloads.ConjGrad, Pragma, 2},
	}
	for _, tc := range cases {
		res, err := Run(tc.b, tc.scheme, Options{Scale: testScale})
		if err != nil {
			t.Errorf("%s/%s: %v", tc.b.Name, tc.scheme, err)
			continue
		}
		if res.Pass == nil || len(res.Pass.Kernels) < tc.minKernels {
			got := 0
			if res.Pass != nil {
				got = len(res.Pass.Kernels)
			}
			t.Errorf("%s/%s: %d kernels generated, want ≥ %d",
				tc.b.Name, tc.scheme, got, tc.minKernels)
		}
	}
}

func TestG500ListConversionLimited(t *testing.T) {
	// The list walk cannot be expressed as events by either pass; only the
	// queue→head chain converts.
	res, err := Run(workloads.G500List, Converted, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass.Converted == 0 {
		t.Error("queue→head chain should convert")
	}
}

func TestDeterminism(t *testing.T) {
	for _, s := range []Scheme{Manual, GHBRegular, GHBLarge, Stride, Converted} {
		a, err := Run(workloads.HJ2, s, Options{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(workloads.HJ2, s, Options{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.PF.KernelRuns != b.PF.KernelRuns ||
			a.DRAM.Reads != b.DRAM.Reads {
			t.Errorf("%s: two identical runs differ: %d/%d cycles, %d/%d dram reads",
				s, a.Cycles, b.Cycles, a.DRAM.Reads, b.DRAM.Reads)
		}
	}
}

func TestPPUOverridesApply(t *testing.T) {
	res, err := Run(workloads.IntSort, Manual, Options{Scale: testScale, PPUs: 3, PPUMHz: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activity) != 3 {
		t.Errorf("activity factors for %d PPUs, want 3", len(res.Activity))
	}
}

// TestPPUSizingPrecedence pins the one precedence ConfigFor and the memo keys
// share: an override wins, then Options.Config, then Table 1; an override
// that is not set leaves the configuration's own value — a clock of any
// period included — as it is; and a sizing no machine can be built with is an
// error rather than a panic inside the simulator.
func TestPPUSizingPrecedence(t *testing.T) {
	own := system.DefaultConfig()
	own.Prefetcher.NumPPUs = 6
	own.Prefetcher.PPUClock.Period = 3 // 5333.3 MHz: no whole number of MHz names it
	for _, c := range []struct {
		name   string
		opt    Options
		ppus   int
		period sim.Ticks
	}{
		{"Table 1", Options{}, 12, 16},
		{"override", Options{PPUs: 3, PPUMHz: 250}, 3, 64},
		{"Config", Options{Config: &own}, 6, 3},
		{"override over Config", Options{Config: &own, PPUs: 3, PPUMHz: 2000}, 3, 8},
		{"count override keeps the Config's clock", Options{Config: &own, PPUs: 3}, 3, 3},
	} {
		cfg, err := ConfigFor(c.opt, Manual)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := cfg.Prefetcher; got.NumPPUs != c.ppus || got.PPUClock.Period != c.period {
			t.Errorf("%s: %d PPUs at period %d, want %d at %d", c.name, got.NumPPUs, got.PPUClock.Period, c.ppus, c.period)
		}
	}
	for _, opt := range []Options{{PPUMHz: 333}, {PPUMHz: -1000}, {PPUMHz: 32000}, {PPUs: MaxPPUs + 1}, {PPUs: -1}} {
		for _, sch := range []Scheme{Manual, NoPF} {
			if _, err := ConfigFor(opt, sch); err == nil {
				t.Errorf("ConfigFor(PPUs %d, PPUMHz %d, %s) succeeded", opt.PPUs, opt.PPUMHz, sch)
			}
		}
	}
	if _, err := ConfigFor(Options{PPUs: MaxPPUs, PPUMHz: 16000}, Manual); err != nil {
		t.Errorf("the largest sizing is refused: %v", err)
	}
}
