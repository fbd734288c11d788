package harness

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// TestTraceSchemeApplicability pins which schemes can consume a replayed
// trace: everything that neither rewrites IR nor depends on hand-written
// kernels runs; variant, pass and manual-only schemes report ErrUnsupported
// (skipped, not failed). Adaptive must run — its programmable arm simply
// stays unconfigured.
func TestTraceSchemeApplicability(t *testing.T) {
	for _, s := range []Scheme{NoPF, Stride, GHBRegular, RPT, GHBDelta, TSKID, Adaptive} {
		if err := at(runKey{"RandAcc-replay", s, traceHashScale, plain}).err; err != nil {
			t.Errorf("replay under %s: %v", s, err)
		}
	}
	for _, s := range []Scheme{Software, Pragma, Converted, Manual, ManualBlocked} {
		if err := at(runKey{"RandAcc-replay", s, traceHashScale, plain}).err; !errors.Is(err, ErrUnsupported) {
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
