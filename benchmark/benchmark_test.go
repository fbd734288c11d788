package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"eventpf/internal/harness"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64
	}{
		{1200, 99, 1188}, // 12 samples lie beyond the p99
		{1000, 99, 990},  // exactly 10 beyond
		{999, 95, 950},   // p99 would leave 9
		{400, 95, 380},
		{150, 90, 135},
		{100, 90, 90}, // exactly 10 beyond the p90
		{99, 0, 0},    // even p90 leaves 9
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if pct != tc.pct || v != tc.value || ok != (tc.pct != 0) {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v", tc.n, pct, v, ok, tc.pct, tc.value)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, StartUS: 30, EndUS: 60},  // overlaps span 2: 10..60 is covered once
		{ID: 4, Parent: 2, StartUS: 15, EndUS: 20},  // a grandchild takes nothing from span 1
		{ID: 5, Parent: 1, StartUS: 90, EndUS: 120}, // clipped to its parent's end
	}
	selfTimes(spans)
	want := []float64{100 - 50 - 10, 30 - 5, 30, 5, 30}
	for i, s := range spans {
		if s.SelfUS != want[i] {
			t.Errorf("span %d self = %v, want %v", s.ID, s.SelfUS, want[i])
		}
	}
	var off *spanLog // the untraced run
	off.end(off.begin("x", 0))
}

func TestSeedDeterminesThePlan(t *testing.T) {
	for _, w := range workloadDefs {
		cfg := planConfig{Seed: 7, Scale: w.Scale, Requests: serveRequests}
		a, b := makePlan(w.Name, cfg), makePlan(w.Name, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two plans", w.Name)
		}
		cfg.Seed = 8
		if c := makePlan(w.Name, cfg); w.Name != wFigures && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w.Name)
		}
	}
	p := makePlan(wServe, planConfig{Seed: 1, Scale: 0.01, Requests: serveRequests})
	distinct := map[int]bool{}
	for i, cfg := range p.Requests {
		if !distinct[cfg] && cfg != len(distinct) {
			t.Fatalf("request %d introduces config %d before config %d", i, cfg, len(distinct))
		}
		distinct[cfg] = true
	}
	if len(p.Requests) != serveRequests || len(distinct) != len(servePairs()) {
		t.Errorf("serve-mix: %d requests over %d configs, want %d over %d", len(p.Requests), len(distinct), serveRequests, len(servePairs()))
	}
	if n := len(makePlan(wPPFDetail, planConfig{Seed: 1, Scale: 0.01}).Items); n != 20 {
		t.Errorf("ppf-detail has %d pairs, want 20", n)
	}
	if n := len(makePlan(wPPFDetail, planConfig{Seed: 1, Scale: 0.01, Third: true}).Items); n != 7 {
		t.Errorf("traced ppf-detail has %d pairs, want 7", n)
	}
	if n := len(makePlan(wHWPF, planConfig{Seed: 1, Scale: 0.01}).Items); n != 36 {
		t.Errorf("hwpf-replay has %d replays, want 36", n)
	}
	if n := len(makePlan(wEngines, planConfig{Seed: 1, Scale: 0.01}).Items); n != 16 {
		t.Errorf("engines-approx has %d runs, want 16", n)
	}
}

// Every listed pair must exist: ErrUnsupported for one is a benchmark bug.
// Warm with zero ops assembles the machine and stream without simulating.
func TestPlansAreSupported(t *testing.T) {
	for _, w := range []string{wPPFDetail, wEngines, wServe} {
		for _, it := range makePlan(w, planConfig{Seed: 1, Scale: 0.005, Requests: 1}).Items {
			b, s, err := resolve(it.Bench, it.Scheme)
			if err == nil {
				_, err = harness.Warm(b, s, harness.Options{Scale: it.Scale}, 0)
			}
			if err != nil {
				t.Errorf("%s: %s: %v", w, it, err)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q is outside the contract's character set", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	// BENCHMARK.json has no key for a per-layer metric's kind or for what it
	// should move, so this table is where both are recorded.
	for _, d := range perLayer {
		switch d.Kind {
		case "count", "probe", "workload-probe", "share", "traced":
		default:
			t.Errorf("per-layer metric %q: kind %q", d.Name, d.Kind)
		}
		if d.Moves == "" {
			t.Errorf("per-layer metric %q does not say what it should move", d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", d.Name, d.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) != 5 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloadDefs))
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or why is %d characters", w.Name, len(w.Why))
		}
	}

	// BENCHMARK.json at the repository root is this program's -manifest output.
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from `bash benchmark/run.sh -manifest`")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_mops_per_s", Better: "higher", Bound: 0.10}
	a := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{10.2, 10.1, 10.3, 10.2, 10.25}, "unchanged"},
		{lower, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, "regressed"},
		{lower, []float64{10.9, 11, 10.8, 10.9, 10.95}, "unchanged"}, // 9 % worse: inside the bound
		{lower, []float64{8, 8.1, 7.9, 8, 8}, "unchanged"},           // better is not a regression
		{higher, []float64{8, 8.1, 7.9, 8, 8}, "regressed"},
		{lower, []float64{9, 13, 10, 12, 8}, "unresolved"}, // wider than the bound, and overlapping
	} {
		if got, _ := verdict(tc.d, a, tc.b); got != tc.want {
			t.Errorf("%s %v: %s, want %s", tc.d.Name, tc.b, got, tc.want)
		}
	}
}

// smoke runs every workload once at scale 0.01 with 60 requests: every
// operation must succeed, every metric of the run's kind must be present,
// and every end-to-end metric must be a positive number.
func smoke(t *testing.T, traced bool) {
	dir := t.TempDir()
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, w := range workloadDefs {
		t0 := time.Now()
		res, r, err := runChild(config{Workload: w.Name, Seed: 3, Traced: traced, Scale: 0.01, Requests: 60, OutDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		t.Logf("%s: %v", w.Name, time.Since(t0).Round(time.Millisecond))
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d failed %d: %v", w.Name, res.Attempted, res.Failed, r.errs)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && v.Value <= 0) {
				t.Errorf("%s: %s = %v (present %v)", w.Name, d.Name, v.Value, ok)
			}
		}
		if traced {
			// All five workloads run the simulator, so none may leave its
			// counts unmeasured.
			for _, name := range []string{"cpu.ops", "sim.events", "sim.events_per_op", "sim.est_share"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v", w.Name, name, res.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("%s: no span trace written: %v", w.Name, err)
			}
		}
	}
}

// About 15 s on the reference host (several times that under -race).
func TestSmoke(t *testing.T) { smoke(t, false) }

// The traced smoke pass runs the layer probes once per workload, which is
// most of its time.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probes five times")
	}
	smoke(t, true)
}
