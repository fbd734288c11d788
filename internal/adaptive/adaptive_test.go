package adaptive

import "testing"

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
