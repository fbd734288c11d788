package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// TestSlicedRunBuildsOnce: the slice boundaries come from a fork of the
// prepared machine, drained functionally, so a sliced run builds its
// benchmark once, as a serial run does.
func TestSlicedRunBuildsOnce(t *testing.T) {
	builds := 0
	b := *workloads.HJ2
	b.Build = func(m *system.Machine, scale float64) *workloads.Instance {
		builds++
		return workloads.HJ2.Build(m, scale)
	}
	res, err := Run(&b, Manual, Options{Scale: goldenScale, Slices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeParallel == nil {
		t.Fatalf("run did not slice: %q", res.Fallback)
	}
	if builds != 1 {
		t.Errorf("a Slices=2 run built the benchmark %d times, want 1", builds)
	}
}

// tinyBench is a one-instruction program: far too short to slice.
func tinyBench(t *testing.T) *workloads.Benchmark {
	t.Helper()
	fn, err := ir.Parse("func tiny(0 args) {\nb0 <entry>:\n  v0 = const 0\n  ret v0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	return &workloads.Benchmark{
		Name: "tiny",
		Build: func(*system.Machine, float64) *workloads.Instance {
			return &workloads.Instance{
				BuildFn: func(workloads.Variant) *ir.Fn { return fn.Clone() },
				Runs:    []workloads.Run{{}},
				Check:   func(*system.Machine, uint64, bool) error { return nil },
			}
		},
	}
}

// TestTimeParallelShortProgramFallsBack slices a program too short for two
// MinSliceOps slices: the driver must run it serially, say why in
// Result.Fallback, and leave every other byte equal to a plain run (no
// TimeParallel block).
func TestTimeParallelShortProgramFallsBack(t *testing.T) {
	b := tinyBench(t)
	plain, err := Run(b, Stride, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Core.Ops >= 2*system.MinSliceOps {
		t.Fatalf("test program has %d ops, too long to force the fallback", plain.Core.Ops)
	}
	res, err := Run(b, Stride, Options{Slices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Fallback, "slicing needs at least") {
		t.Errorf("Fallback = %q, want the too-short reason", res.Fallback)
	}
	res.Fallback = ""
	if !bytes.Equal(encode(t, plain), encode(t, res)) {
		t.Error("forced-serial fallback differs from plain run beyond the Fallback reason")
	}
}

// TestTimeParallelClampsSliceCount asks for far more slices than MinSliceOps
// permits on a program long enough to slice: the request is clamped to
// ops/MinSliceOps lanes (dozens of them, each barely MinSliceOps long), the
// run still covers every op exactly once and passes the oracle, and no
// fallback is recorded — the engine asked for did run.
func TestTimeParallelClampsSliceCount(t *testing.T) {
	plain, err := Run(workloads.RandAcc, Stride, Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want := int(plain.Core.Ops / system.MinSliceOps)
	if want < 2 || want >= 4096 {
		t.Fatalf("test program has %d ops: clamp would give %d lanes, want 2..4095", plain.Core.Ops, want)
	}
	res, err := Run(workloads.RandAcc, Stride, Options{Scale: 0.01, Slices: 4096})
	if err != nil {
		t.Fatal(err)
	}
	st := res.TimeParallel
	if st == nil {
		t.Fatalf("run did not slice: %q", res.Fallback)
	}
	if res.Fallback != "" {
		t.Errorf("Fallback = %q on a run that sliced", res.Fallback)
	}
	if st.Slices != want {
		t.Errorf("effective slices = %d, want %d ops / %d = %d", st.Slices, plain.Core.Ops, system.MinSliceOps, want)
	}
	var detail int64
	for i, d := range st.DetailOps {
		if d < system.MinSliceOps {
			t.Errorf("lane %d detailed %d ops, below MinSliceOps", i, d)
		}
		detail += d
	}
	if detail != plain.Core.Ops || res.Core.Ops != plain.Core.Ops {
		t.Errorf("lanes detailed %d ops (stitched Core.Ops %d), serial %d", detail, res.Core.Ops, plain.Core.Ops)
	}
}

// TestSlicesIgnoredUnderSampling pins the other recorded reason the harness
// can reach: sampling wins over slicing, and the result says so.
func TestSlicesIgnoredUnderSampling(t *testing.T) {
	sc := sampling
	res, err := Run(workloads.RandAcc, Stride, Options{Scale: goldenScale, Sample: &sc, Slices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil || res.TimeParallel != nil {
		t.Errorf("Sampled = %v, TimeParallel = %v; want a sampled, unsliced run", res.Sampled, res.TimeParallel)
	}
	if !strings.Contains(res.Fallback, "sampling is set") {
		t.Errorf("Fallback = %q, want the slices-ignored reason", res.Fallback)
	}
}

// TestSlicesIgnoredUnderObservation pins the no-lane-0-only rule: observers
// do not follow a machine fork, so a sliced run with one attached would show
// it the first slice only. It runs serially instead — the collector sees the
// serial run's every event — and the result names the observer.
func TestSlicesIgnoredUnderObservation(t *testing.T) {
	events := func(slices int) (int, Result) {
		c := trace.NewCollector()
		res, err := Run(workloads.HJ2, Manual, Options{Scale: goldenScale, Slices: slices, TraceSink: c})
		if err != nil {
			t.Fatal(err)
		}
		return len(c.Events()), res
	}
	serial, _ := events(0)
	sliced, res := events(4)
	if sliced != serial {
		t.Errorf("Slices=4 with a trace sink saw %d events, the serial run %d", sliced, serial)
	}
	if res.TimeParallel != nil || !strings.Contains(res.Fallback, "trace sink") {
		t.Errorf("TimeParallel = %v, Fallback = %q; want a serial run naming the trace sink", res.TimeParallel, res.Fallback)
	}
	for name, opt := range map[string]Options{
		"op-trace sink":         {OpSink: trace.NewCollector()},
		"metrics registry":      {Metrics: trace.NewRegistry()},
		"prefetcher trace sink": {TraceLast: 8},
	} {
		opt.Scale, opt.Slices = goldenScale, 4
		res, err := Run(workloads.HJ2, Manual, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeParallel != nil || !strings.Contains(res.Fallback, name) {
			t.Errorf("%s: TimeParallel = %v, Fallback = %q; want a serial run naming it", name, res.TimeParallel, res.Fallback)
		}
	}
}

// TestTimeParallelAdaptiveStitch slices the adaptive controller's showcase
// benchmark: the stitched controller statistics must sum counters (the
// per-arm breakdown adds up to Intervals) and take gauges — the sensor
// EWMAs, per-mille values — from the last slice instead of summing them.
func TestTimeParallelAdaptiveStitch(t *testing.T) {
	b, err := workloads.ByName("PhaseMix")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(b, Adaptive, Options{Scale: goldenScale, Slices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeParallel == nil {
		t.Fatalf("run did not slice: %q", res.Fallback)
	}
	st := res.Adaptive
	if st.MissPerMille > 1000 || st.AccuracyPerMille > 1000 {
		t.Errorf("per-mille sensors summed across slices: miss %d, accuracy %d", st.MissPerMille, st.AccuracyPerMille)
	}
	var arms int64
	for _, a := range st.ArmIntervals {
		arms += a.Intervals
	}
	if arms != st.Intervals {
		t.Errorf("ArmIntervals sum to %d, Intervals = %d", arms, st.Intervals)
	}
}

// TestTimeParallelTraceReplay slices a replayed trace (its CPI bound is the
// matrix's RandAcc-replay/ghb-regular cell): every lane but the last abandons
// its replayer mid-trace, and the driver must close those files rather than
// leave them to the finalizer. A truncated trace must still fail the run:
// the damage lands in the final slice's detail window, where the post-run
// decode check must reject it.
func TestTimeParallelTraceReplay(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, goldenScale)
	fdsBefore := openFDs()
	if res, err := Run(tracein.Bench(path), GHBRegular, Options{Slices: 4}); err != nil || res.TimeParallel == nil {
		t.Fatalf("sliced replay did not slice: %v", err)
	}
	if after := openFDs(); after > fdsBefore {
		t.Errorf("sliced replay left %d file descriptors open", after-fdsBefore)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.ppft")
	if err := os.WriteFile(cut, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(tracein.Bench(cut), GHBRegular, Options{Slices: 4})
	var fe *tracein.FormatError
	if !errors.As(err, &fe) {
		t.Errorf("sliced truncated replay error = %v, want *tracein.FormatError", err)
	}
}

// openFDs counts this process's open file descriptors (0 where /proc is not
// available, which disables the leak check).
func openFDs() int {
	ents, _ := os.ReadDir("/proc/self/fd")
	return len(ents)
}
