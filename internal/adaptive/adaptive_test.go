package adaptive

import (
	"strings"
	"testing"
)

func TestDefaultConfigValidates(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestArmNames(t *testing.T) {
	c := Config{Arms: " off , stride,,pf "}
	got := c.ArmNames()
	want := []string{"off", "stride", "pf"}
	if len(got) != len(want) {
		t.Fatalf("ArmNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArmNames = %v, want %v", got, want)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"one-arm menu", func(c *Config) { c.Arms = "pf" }, "at least two arms"},
		{"empty menu", func(c *Config) { c.Arms = " , " }, "at least two arms"},
		{"zero interval", func(c *Config) { c.IntervalTicks = 0 }, "interval"},
		{"negative epsilon", func(c *Config) { c.Epsilon = -1 }, "epsilon"},
		{"zero trial", func(c *Config) { c.TrialIntervals = 0 }, "trial length"},
		{"zero pf trial", func(c *Config) { c.PfTrialIntervals = 0 }, "pf trial length"},
		{"zero phase threshold", func(c *Config) { c.PhasePerMille = 0 }, "phase threshold"},
		{"negative cooldown", func(c *Config) { c.Cooldown = -1 }, "cooldown"},
		{"negative idle threshold", func(c *Config) { c.PfIdleIntervals = -1 }, "idle threshold"},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestAdaptiveStatsAddTakesFinalsFromNext pins the gauge rule on real values.
func TestAdaptiveStatsAddTakesFinalsFromNext(t *testing.T) {
	first := Stats{Intervals: 3, FinalArm: "stride", MissPerMille: 900,
		ArmIntervals: []ArmIntervals{{Arm: "stride", Intervals: 2}, {Arm: "pf", Intervals: 1}}}
	next := Stats{Intervals: 4, FinalArm: "pf", MissPerMille: 100,
		ArmIntervals: []ArmIntervals{{Arm: "stride", Intervals: 1}, {Arm: "pf", Intervals: 3}}}
	sum := first.Add(next)
	if sum.Intervals != 7 || sum.FinalArm != "pf" || sum.MissPerMille != 100 {
		t.Errorf("sum = %+v", sum)
	}
	if sum.ArmIntervals[0].Intervals != 3 || sum.ArmIntervals[1].Intervals != 4 {
		t.Errorf("ArmIntervals = %+v, want 3 and 4", sum.ArmIntervals)
	}
}
