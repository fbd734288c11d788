package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// captureTrace runs b at the given scale under no-pf with a capture sink
// attached and returns the path of the written trace.
func captureTrace(t *testing.T, b *workloads.Benchmark, scale float64) string {
	t.Helper()
	var buf bytes.Buffer
	sink := tracein.NewWriter(&buf, tracein.Meta{Bench: b.Name, Scale: scale, Tool: "test"})
	if _, err := Run(b, NoPF, Options{Scale: scale, OpSink: sink}); err != nil {
		t.Fatalf("capture run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close capture: %v", err)
	}
	path := filepath.Join(t.TempDir(), "capture.ppft")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCaptureReplayByteIdentity pins the tentpole contract: a no-pf capture
// of a plain-variant run replays through the timed pipeline with results
// bit-identical to simulating the benchmark directly, for every
// non-programmable scheme. Two bench × scheme pairs keep the run time down
// while covering a stride-friendly and an irregular stream.
func TestCaptureReplayByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		bench  *workloads.Benchmark
		scheme Scheme
		scale  float64
	}{
		{workloads.RandAcc, Stride, 0.02},
		{workloads.HJ2, RPT, 0.02},
	} {
		path := captureTrace(t, tc.bench, tc.scale)
		direct, err := Run(tc.bench, tc.scheme, Options{Scale: tc.scale})
		if err != nil {
			t.Fatalf("%s/%s direct: %v", tc.bench.Name, tc.scheme, err)
		}
		replay, err := Run(tracein.Bench(path), tc.scheme, Options{})
		if err != nil {
			t.Fatalf("%s/%s replay: %v", tc.bench.Name, tc.scheme, err)
		}
		if !reflect.DeepEqual(direct.Result, replay.Result) {
			t.Errorf("%s/%s: replayed result differs from direct run:\ndirect %+v\nreplay %+v",
				tc.bench.Name, tc.scheme, direct.Result, replay.Result)
		}
	}
}

// TestReplayDeterminism replays one trace twice and demands identical
// results — the property the CI trace-smoke job checks end to end.
func TestReplayDeterminism(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.02)
	b := tracein.Bench(path)
	a, err := Run(b, GHBRegular, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(tracein.Bench(path), GHBRegular, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, c.Result) {
		t.Errorf("two replays differ:\n%+v\n%+v", a.Result, c.Result)
	}
}

// TestTraceSchemeApplicability pins which schemes can consume a replayed
// trace: everything that neither rewrites IR nor depends on hand-written
// kernels runs; variant, pass and manual-only schemes report ErrUnsupported
// (skipped, not failed). Adaptive must run — its programmable arm simply
// stays unconfigured.
func TestTraceSchemeApplicability(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.02)
	mustRun := []Scheme{NoPF, Stride, GHBRegular, RPT, GHBDelta, TSKID, Adaptive}
	for _, s := range mustRun {
		if _, err := Run(tracein.Bench(path), s, Options{}); err != nil {
			t.Errorf("replay under %s: %v", s, err)
		}
	}
	for _, s := range []Scheme{Software, Pragma, Converted, Manual, ManualBlocked} {
		if _, err := Run(tracein.Bench(path), s, Options{}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("replay under %s: err = %v, want ErrUnsupported", s, err)
		}
	}
}

// TestReplayRejectsCorruptTrace checks the replay oracle: a truncated trace
// must fail the run (via the decode-state check), not silently time a short
// program.
func TestReplayRejectsCorruptTrace(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.02)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.ppft")
	if err := os.WriteFile(cut, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(tracein.Bench(cut), NoPF, Options{})
	var fe *tracein.FormatError
	if !errors.As(err, &fe) {
		t.Errorf("truncated replay error = %v, want *tracein.FormatError", err)
	}
}

// TestReplayDependenceBeforeOpZero: a record whose dependence distance
// reaches before the first op names a producer that never ran. Replay must
// treat it as retired, as it does one older than the window, rather than
// hand the core a negative producer id (which crashed ppfsim -trace-in and,
// through a POST /jobs trace, a ppfserve worker and the daemon with it).
func TestReplayDependenceBeforeOpZero(t *testing.T) {
	var buf bytes.Buffer
	w := tracein.NewWriter(&buf, tracein.Meta{Tool: "test"})
	for pc, dist := range []uint64{0, 5, 1} {
		w.Event(trace.Event{Kind: trace.CoreDispatch, A: int32(cpu.OpInt), B: int32(pc), Dur: sim.Ticks(dist)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "before-zero.ppft")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(tracein.Bench(path), NoPF, Options{})
	if err != nil || res.Core.Ops != 3 {
		t.Fatalf("replay: %d ops, %v; want 3 ops and no error", res.Core.Ops, err)
	}
}

func TestJobSpecTrace(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, 0.02)
	job, err := JobSpec{Trace: path, Scheme: "stride"}.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if job.Bench.Name != "trace:"+path {
		t.Errorf("resolved bench = %q", job.Bench.Name)
	}
	if !strings.Contains(job.Canonical(), "trace:"+path) {
		t.Errorf("Canonical %q does not carry the trace path", job.Canonical())
	}
	if res, err := Run(job.Bench, job.Scheme, Options{}); err != nil || res.Cycles == 0 {
		t.Errorf("resolved trace job failed: %v", err)
	}
	if _, err := (JobSpec{Bench: "RandAcc", Trace: path, Scheme: "stride"}).Resolve(); err == nil {
		t.Error("Resolve accepted both bench and trace")
	}
}
