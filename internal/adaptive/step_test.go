package adaptive_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"eventpf/internal/adaptive"
	"eventpf/internal/harness"
	"eventpf/internal/workloads"
)

// reading is one decision tick of a real run: the sensors the unit read and
// what its policy step answered.
type reading struct {
	adaptive.Sensors
	arm int
	why adaptive.Reason
}

var phaseMix struct {
	once sync.Once
	rec  []reading
	err  error
}

// recordPhaseMix runs PhaseMix under the adaptive scheme at scale 0.02 and
// returns the sensors and outcome of every decision tick, recorded through
// Unit.Record. The run is made once per test binary.
func recordPhaseMix(tb testing.TB) []reading {
	tb.Helper()
	phaseMix.once.Do(func() {
		w, err := harness.Warm(workloads.PhaseMix, harness.Adaptive, harness.Options{Scale: 0.02}, 0)
		if err != nil {
			phaseMix.err = err
			return
		}
		u := w.Machine().Baseline.(*adaptive.Unit)
		var rec []reading
		u.Record(func(s adaptive.Sensors, arm int, why adaptive.Reason) {
			rec = append(rec, reading{s, arm, why})
		})
		res, err := w.Resume()
		switch {
		case err != nil:
			phaseMix.err = err
		case int64(len(rec)) != res.Adaptive.Intervals:
			phaseMix.err = fmt.Errorf("recorded %d ticks of %d", len(rec), res.Adaptive.Intervals)
		}
		phaseMix.rec = rec
	})
	if phaseMix.err != nil {
		tb.Fatal(phaseMix.err)
	}
	return phaseMix.rec
}

// switchAt is one arm change: the step it happened at, the new arm and why.
type switchAt struct {
	step, arm int
	why       adaptive.Reason
}

// drive runs a fresh Policy for n steps, step i reading in(i, active arm),
// and returns its arm changes.
func drive(n int, in func(step, arm int) adaptive.Sensors) []switchAt {
	p := adaptive.NewPolicy()
	var got []switchAt
	for i := 0; i < n; i++ {
		if arm, why := p.Step(in(i, p.Active())); why != adaptive.Stay {
			got = append(got, switchAt{i, arm, why})
		}
	}
	return got
}

// plant answers each arm with fixed sensors: ops[arm] retired micro-ops
// under heavy demand traffic, and pfFills fills while the pf arm runs.
func plant(ops [adaptive.NumArms]int64, pfFills int64) func(int, int) adaptive.Sensors {
	return func(_, arm int) adaptive.Sensors {
		s := adaptive.Sensors{Ops: ops[arm], Demands: 1000}
		if arm == adaptive.ArmPF {
			s.Fills = pfFills
		}
		return s
	}
}

const (
	pf      = adaptive.ArmPF
	sweep   = adaptive.Sweep
	exploit = adaptive.Exploit
	demote  = adaptive.IdleDemote
)

// initialSweep is every run's opening: each arm in menu order runs for
// TrialIntervals steps from step 0, so the sweep ends at step 14.
var initialSweep = []switchAt{{2, 1, sweep}, {5, 2, sweep}, {8, 3, sweep}, {11, pf, sweep}}

// TestStep drives the policy step from sensor traces. The recorded rows
// replay PhaseMix at scale 0.02 and name steps of that run, so a simulator
// change that moves PhaseMix's timing moves them; the synthetic rows answer
// each arm with fixed sensors. Each mechanism of the policy has a row that
// fails without it.
func TestStep(t *testing.T) {
	rec := recordPhaseMix(t)
	recorded := func(i, _ int) adaptive.Sensors { return rec[i].Sensors }
	var live []switchAt
	for i, r := range rec {
		if r.why != adaptive.Stay {
			live = append(live, switchAt{i, r.arm, r.why})
		}
	}
	for _, c := range []struct {
		name     string
		in       func(step, arm int) adaptive.Sensors
		steps    int
		from, to int // the steps whose switches are compared
		want     []switchAt
	}{
		// The unit's decisions are the policy's: a fresh Policy fed the
		// recorded sensors makes every recorded switch and no other.
		{name: "replay of the recorded run", in: recorded, steps: len(rec), to: len(rec), want: live},
		// PhaseMix opens on a scan. The sweep trials the arms in menu order
		// and stride, the best on a scan, takes over.
		{name: "sweep order", in: recorded, steps: len(rec), to: 15,
			want: append(slices.Clone(initialSweep), switchAt{14, 1, exploit})},
		// pf at 85% of stride's reward keeps the seat after its sweep trial.
		{name: "tenure bias", in: plant([5]int64{100, 1000, 300, 400, 850}, 500), steps: 60, to: 60,
			want: initialSweep},
		// ...and at 70% it does not.
		{name: "tenure bias ends at 25%", in: plant([5]int64{100, 1000, 300, 400, 700}, 500), steps: 60, to: 60,
			want: append(slices.Clone(initialSweep), switchAt{14, 1, exploit})},
		// The chase phase starts at step 66: ghb-delta's stale scan reward
		// makes it the best arm, but its trial measures the chase and loses
		// (69); stride's trial loses too (72). pf's trial wins the chase
		// outright but, still short of stride-d2's stale scan reward, hands
		// over to a trial of that arm (75).
		{name: "trial verification", in: recorded, steps: len(rec), from: 60, to: 76,
			want: []switchAt{{66, 3, exploit}, {69, 1, exploit}, {72, pf, exploit}, {75, 2, exploit}}},
		// pf holds the chase from step 96. The program returns to a scan at
		// step 105, where pf fills nothing: four blind steps later it is
		// demoted and every arm, pf included, is swept again.
		{name: "idle demotion", in: recorded, steps: len(rec), from: 97, to: len(rec),
			want: []switchAt{{108, 0, demote}, {111, 1, sweep}, {114, 2, sweep}, {117, 3, sweep},
				{120, pf, sweep}, {123, 2, exploit}, {124, 3, exploit}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []switchAt
			for _, s := range drive(c.steps, c.in) {
				if s.step >= c.from && s.step < c.to {
					got = append(got, s)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("switches in steps [%d,%d):\n got %v\nwant %v", c.from, c.to, got, c.want)
			}
		})
	}
}

// BenchmarkAdaptiveStep: one policy decision, fed the recorded PhaseMix
// sensors in a loop with a fresh policy each pass. It fails on an
// allocation.
func BenchmarkAdaptiveStep(b *testing.B) {
	rec := recordPhaseMix(b)
	p := adaptive.NewPolicy()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(rec)
		if j == 0 {
			p = adaptive.NewPolicy()
		}
		p.Step(rec[j].Sensors)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if grew := after.Mallocs - before.Mallocs; grew > 16 {
		b.Fatalf("%d allocations over %d steps, want none per step", grew, b.N)
	}
}
