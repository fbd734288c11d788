package harness

import (
	"errors"
	"testing"

	"eventpf/internal/sim"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

func TestPageRankHasNoSoftwareVariant(t *testing.T) {
	_, err := Run(workloads.PageRank, Software, Options{Scale: testScale})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("PageRank software prefetch should be unsupported, got %v", err)
	}
}

func TestBlockedSlowerThanEventsOnChainedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("directional assertion")
	}
	ev := mustAt(t, runKey{"HJ-8", Manual, speedupScale, plain}).res
	bl := mustAt(t, runKey{"HJ-8", ManualBlocked, speedupScale, plain}).res
	if bl.Cycles <= ev.Cycles {
		t.Errorf("HJ-8 blocked (%d cycles) not slower than event-triggered (%d)",
			bl.Cycles, ev.Cycles)
	}
}

func TestCompilerPassesConvertWhereExpected(t *testing.T) {
	cases := []struct {
		bench      string
		scheme     Scheme
		minKernels int
	}{
		{"IntSort", Converted, 2},
		{"HJ-2", Converted, 2},
		{"HJ-8", Converted, 3},
		{"ConjGrad", Converted, 2},
		{"RandAcc", Converted, 2},
		{"IntSort", Pragma, 2},
		{"PageRank", Pragma, 2},
		{"ConjGrad", Pragma, 2},
	}
	for _, tc := range cases {
		if pass := mustAt(t, runKey{tc.bench, tc.scheme, testScale, plain}).res.Pass; len(pass.Kernels) < tc.minKernels {
			t.Errorf("%s/%s: %d kernels generated, want ≥ %d", tc.bench, tc.scheme, len(pass.Kernels), tc.minKernels)
		}
	}
}

func TestG500ListConversionLimited(t *testing.T) {
	// The list walk cannot be expressed as events by either pass; only the
	// queue→head chain converts.
	if mustAt(t, runKey{"G500-List", Converted, testScale, plain}).res.Pass.Converted == 0 {
		t.Error("queue→head chain should convert")
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
