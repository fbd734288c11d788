package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/workloads"
)

// TestPrefetchSharesBaseline checks the singleflight memo: requesting the
// same pair many times concurrently must leave exactly one cache entry per
// distinct configuration.
func TestPrefetchSharesBaseline(t *testing.T) {
	s := NewSuite(Options{Scale: testScale, Parallel: 4})
	pairs := []Pair{
		{Bench: workloads.HJ2, Scheme: NoPF},
		{Bench: workloads.HJ2, Scheme: NoPF},
		{Bench: workloads.HJ2, Scheme: NoPF},
		{Bench: workloads.HJ2, Scheme: Manual},
		// Explicit default sizing must collapse onto the default Manual run.
		{Bench: workloads.HJ2, Scheme: Manual, PPUs: 12, PPUMHz: 1000},
	}
	if err := s.Prefetch(pairs); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := len(s.cache)
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("cache has %d entries, want 2 (shared baseline + shared manual)", n)
	}
}

// TestNewSuiteRefusesPerRunOptions: a suite copies its options into every
// concurrent run and fills Figure 9 entries from exact forks, so an observer
// or an approximate engine in them is refused at construction, by field name.
func TestNewSuiteRefusesPerRunOptions(t *testing.T) {
	for _, c := range []struct {
		field string
		opt   Options
	}{
		{"TraceSink", Options{TraceSink: trace.NewCollector()}},
		{"Metrics", Options{Metrics: trace.NewRegistry()}},
		{"OpSink", Options{OpSink: trace.NewCollector()}},
		{"Slices", Options{Slices: 2}},
		{"Sample", Options{Sample: &system.SampleConfig{}}},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Options."+c.field) {
					t.Errorf("NewSuite with %s set: panic %q does not name the field", c.field, msg)
				}
			}()
			NewSuite(c.opt)
		}()
	}
	// What a suite does honour, spelled out in full.
	NewSuite(Options{Scale: testScale, Parallel: 2, PPUs: 6, PPUMHz: 500, TraceLast: 8, Slices: 1})
}

// TestPrefetchIgnoresUnsupported mirrors the paper's missing Figure 7 bars:
// a batch containing an unsupported pair must still succeed.
func TestPrefetchIgnoresUnsupported(t *testing.T) {
	s := NewSuite(Options{Scale: testScale, Parallel: 2})
	err := s.Prefetch([]Pair{
		{Bench: workloads.PageRank, Scheme: Software},
		{Bench: workloads.HJ2, Scheme: NoPF},
	})
	if err != nil {
		t.Fatalf("Prefetch with an unsupported pair: %v", err)
	}
	if _, err := s.Run(Pair{Bench: workloads.PageRank, Scheme: Software}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("collecting the unsupported pair: %v, want ErrUnsupported", err)
	}
}

// TestParallelFigureGeneratorsShareOneSuite drives two figure generators
// that overlap on the no-prefetch baseline through one suite; under -race
// this exercises concurrent memo access from the fan-out paths.
func TestParallelFigureGeneratorsShareOneSuite(t *testing.T) {
	s := NewSuite(Options{Scale: figScale, Parallel: 8})
	rows8, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	rows11, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows8) != len(workloads.All) || len(rows11) != len(workloads.All) {
		t.Fatalf("rows: fig8 %d, fig11 %d", len(rows8), len(rows11))
	}
	// Same suite, same memo: Fig11's Manual results derive from the exact
	// runs Fig8 already measured, so the two figures must agree.
	serial := NewSuite(Options{Scale: figScale, Parallel: 1})
	srows, err := serial.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows11 {
		if rows11[i] != srows[i] {
			t.Errorf("fig11 row %d: parallel %+v, serial %+v", i, rows11[i], srows[i])
		}
	}
}

// TestRunRejectsEmptyInstance pins the guard for benchmark instances with
// no kernel invocations: a clear error, not a nil-interpreter panic.
func TestRunRejectsEmptyInstance(t *testing.T) {
	fn, err := ir.Parse("func noop(0 args) {\nb0 <entry>:\n  v0 = const 0\n  ret v0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	empty := &workloads.Benchmark{
		Name: "empty",
		Build: func(m *system.Machine, scale float64) *workloads.Instance {
			return &workloads.Instance{
				BuildFn: func(v workloads.Variant) *ir.Fn { return fn.Clone() },
				Check:   func(m *system.Machine, ret uint64, hasRet bool) error { return nil },
			}
		},
	}
	_, err = Run(empty, NoPF, Options{Scale: testScale})
	if err == nil {
		t.Fatal("Run on an instance with no runs succeeded, want error")
	}
	if !strings.Contains(err.Error(), "no runs") {
		t.Errorf("error %q does not name the empty-runs condition", err)
	}
}
