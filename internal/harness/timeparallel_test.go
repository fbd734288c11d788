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

// timeParallelPairs are the golden pairs the sliced engine is held to: an
// irregular manual-prefetch run (full event-triggered machinery), a
// baseline-issuer run, and a multi-invocation benchmark with per-run hooks
// (Graph500's parent reset), which exercises the run sequence's Before hooks firing again
// inside every slice's functional prefix.
var timeParallelPairs = []struct {
	bench  string
	scheme Scheme
}{
	{"HJ-2", Manual},
	{"RandAcc", Stride},
	{"G500-CSR", ManualBlocked},
}

// TestTimeParallelGoldenPairs pins the sliced engine's three contracts on
// the golden pairs: determinism (two -slices 4 runs are byte-identical,
// whatever the goroutine schedule — run under -race in CI), functional
// exactness (every dynamic op is detail-simulated in exactly one slice, so
// stitched op counts match the serial run and the oracle check passes), and
// accuracy (stitched CPI within 2% of serial).
func TestTimeParallelGoldenPairs(t *testing.T) {
	for _, tp := range timeParallelPairs {
		tp := tp
		t.Run(tp.bench+"/"+tp.scheme.String(), func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(tp.bench)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Run(b, tp.scheme, Options{Scale: goldenScale})
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Scale: goldenScale, Slices: 4}
			first, err := Run(b, tp.scheme, opt)
			if err != nil {
				t.Fatalf("sliced run: %v", err)
			}
			second, err := Run(b, tp.scheme, opt)
			if err != nil {
				t.Fatalf("second sliced run: %v", err)
			}
			if !bytes.Equal(encode(t, first), encode(t, second)) {
				t.Errorf("two sliced runs differ: %d vs %d cycles", first.Cycles, second.Cycles)
			}

			st := first.TimeParallel
			if st == nil {
				t.Fatal("sliced run did not report TimeParallel stats")
			}
			if st.Slices != 4 {
				t.Errorf("effective slices = %d, want 4", st.Slices)
			}
			var detail int64
			for _, d := range st.DetailOps {
				detail += d
			}
			if detail != serial.Core.Ops || first.Core.Ops != serial.Core.Ops {
				t.Errorf("sliced runs detailed %d ops (stitched Core.Ops %d), serial %d — slicing dropped or duplicated ops",
					detail, first.Core.Ops, serial.Core.Ops)
			}

			relErr := float64(first.Cycles-serial.Cycles) / float64(serial.Cycles)
			if relErr < 0 {
				relErr = -relErr
			}
			t.Logf("serial %d cycles, sliced %d (%.2f%% error; warm %v, detail %v)",
				serial.Cycles, first.Cycles, 100*relErr, st.WarmOps, st.DetailOps)
			if relErr > 0.02 {
				t.Errorf("sliced CPI off by %.2f%% (serial %d, sliced %d), want <= 2%%",
					100*relErr, serial.Cycles, first.Cycles)
			}
		})
	}
}

// TestTimeParallelSerialOptionByteStable pins the opt-out: Slices of 0 and 1
// take the exact serial engine and their encodings carry no TimeParallel
// block — byte-for-byte what the run produced before slicing existed (the
// golden files assert the same against the committed history).
func TestTimeParallelSerialOptionByteStable(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(b, Manual, Options{Scale: goldenScale})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1} {
		res, err := Run(b, Manual, Options{Scale: goldenScale, Slices: k})
		if err != nil {
			t.Fatalf("Slices=%d: %v", k, err)
		}
		if !bytes.Equal(encode(t, plain), encode(t, res)) {
			t.Errorf("Slices=%d result differs from plain serial run", k)
		}
	}
}

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
	return &workloads.Benchmark{
		Name: "tiny",
		Build: func(*system.Machine, float64) *workloads.Instance {
			return &workloads.Instance{
				BuildFn: func(workloads.Variant) *ir.Fn {
					b := ir.NewBuilder("tiny", 0)
					b.SetBlock(b.NewBlock("entry"))
					b.Ret(b.Const(0))
					return b.MustFinish()
				},
				Runs:  []workloads.Run{{}},
				Check: func(*system.Machine, uint64, bool) error { return nil },
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
	sc := system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}
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

// TestTimeParallelTraceReplay slices a replayed trace: the replayer must
// clone itself (a second decode cursor per slice), each slice fast-forwards
// over decoded records, results are deterministic, and CPI stays within the
// 2% band of a serial replay. A truncated trace must still fail the run —
// the decode-state oracle has to catch the final slice's short stream.
func TestTimeParallelTraceReplay(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.05)
	serial, err := Run(tracein.Bench(path), GHBRegular, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fdsBefore := openFDs()
	first, err := Run(tracein.Bench(path), GHBRegular, Options{Slices: 4})
	if err != nil {
		t.Fatalf("sliced replay: %v", err)
	}
	// Every lane but the last abandons its replayer mid-trace; the driver
	// must close those files rather than leave them to the finalizer.
	if after := openFDs(); after > fdsBefore {
		t.Errorf("sliced replay left %d file descriptors open", after-fdsBefore)
	}
	second, err := Run(tracein.Bench(path), GHBRegular, Options{Slices: 4})
	if err != nil {
		t.Fatalf("second sliced replay: %v", err)
	}
	if !bytes.Equal(encode(t, first), encode(t, second)) {
		t.Error("two sliced replays differ")
	}
	if first.TimeParallel == nil {
		t.Fatal("sliced replay did not slice (trace too short for MinSliceOps?)")
	}
	if first.Core.Ops != serial.Core.Ops {
		t.Errorf("sliced replay detailed %d ops, serial %d", first.Core.Ops, serial.Core.Ops)
	}
	relErr := float64(first.Cycles-serial.Cycles) / float64(serial.Cycles)
	if relErr < 0 {
		relErr = -relErr
	}
	t.Logf("serial replay %d cycles, sliced %d (%.2f%% error)", serial.Cycles, first.Cycles, 100*relErr)
	if relErr > 0.02 {
		t.Errorf("sliced replay CPI off by %.2f%%, want <= 2%%", 100*relErr)
	}

	// Corrupt tail: the damage lands in the final slice's detail window, and
	// the post-run decode check must reject the run.
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

// TestSampledTraceReplay covers RunSampled over a decoded stream — sampling
// a -trace-in instance. Fast-forward must execute the replayed ops
// functionally (all trace records consumed, decode clean through the
// trailer) and the CPI estimate must stay in the same loose band the
// IR-driven sampling test allows.
func TestSampledTraceReplay(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.05)
	full, err := Run(tracein.Bench(path), Stride, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}
	sampled, err := Run(tracein.Bench(path), Stride, Options{Sample: &sc})
	if err != nil {
		t.Fatalf("sampled replay: %v", err)
	}
	st := sampled.Sampled
	if st == nil {
		t.Fatal("sampled replay did not report sampling stats")
	}
	if st.TotalOps != full.Core.Ops {
		t.Errorf("sampled replay consumed %d ops, full replay %d — fast-forward lost trace records",
			st.TotalOps, full.Core.Ops)
	}
	if st.DetailedOps >= st.TotalOps*3/4 {
		t.Errorf("sampling detailed %d of %d ops — not actually fast-forwarding", st.DetailedOps, st.TotalOps)
	}
	relErr := float64(st.EstimatedCycles-full.Cycles) / float64(full.Cycles)
	if relErr < 0 {
		relErr = -relErr
	}
	t.Logf("full replay %d cycles, estimated %d (%.1f%% error, %d/%d ops detailed)",
		full.Cycles, st.EstimatedCycles, 100*relErr, st.DetailedOps, st.TotalOps)
	if relErr > 0.35 {
		t.Errorf("sampled replay CPI estimate off by %.1f%%", 100*relErr)
	}
}
