package harness

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"eventpf/internal/workloads"
)

// TestMemoCountersPinned is the satellite regression test: a repeated Suite
// run has exactly one miss and one hit per repetition.
func TestMemoCountersPinned(t *testing.T) {
	s := NewSuite(Options{Scale: testScale, Parallel: 2})
	p := Pair{Bench: workloads.HJ2, Scheme: NoPF}
	for i := 0; i < 3; i++ {
		if _, err := s.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := s.MemoStats()
	if hits != 2 || misses != 1 {
		t.Errorf("memo stats after 3 identical runs: hits=%d misses=%d, want 2/1", hits, misses)
	}
	// A second distinct pair is one more miss; re-running it one more hit.
	q := Pair{Bench: workloads.HJ2, Scheme: Stride}
	if err := s.Prefetch([]Pair{q, q}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(q); err != nil {
		t.Fatal(err)
	}
	hits, misses = s.MemoStats()
	if misses != 2 {
		t.Errorf("memo misses = %d, want 2 (two distinct configs simulated)", misses)
	}
	if hits != 4 {
		t.Errorf("memo hits = %d, want 4", hits)
	}
}

func TestJobSpecResolveAndKey(t *testing.T) {
	// Spelling, casing and redundant sizing must all fold onto one key.
	specs := []JobSpec{
		{Bench: "HJ-2", Scheme: "manual", Scale: 0.1},
		{Bench: "hj2", Scheme: "manual", Scale: 0.1},
		{Bench: "hj_2", Scheme: "manual", Scale: 0.1, PPUs: 12, PPUMHz: 1000},
	}
	var keys []string
	for _, sp := range specs {
		j, err := sp.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", sp, err)
		}
		keys = append(keys, j.Key())
	}
	if keys[0] != keys[1] || keys[0] != keys[2] {
		t.Errorf("equivalent specs hash differently: %v", keys)
	}
	if len(keys[0]) != 64 {
		t.Errorf("key %q is not a hex sha256", keys[0])
	}

	// Sizing on a scheme with no PPU folds to zero: same content address.
	a, err := JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.1, PPUs: 4, PPUMHz: 250}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("PPU sizing changed a no-pf key: %s vs %s", a.Canonical(), b.Canonical())
	}

	// Distinct configs must not collide.
	c, err := JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 0.1, PPUs: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() == keys[0] {
		t.Error("different PPU count produced the same key")
	}

	// Errors carry the valid menu.
	if _, err := (JobSpec{Bench: "nope", Scheme: "manual"}).Resolve(); err == nil ||
		!strings.Contains(err.Error(), "hj2") {
		t.Errorf("unknown bench error %v does not list valid names", err)
	}
	if _, err := (JobSpec{Bench: "HJ-2", Scheme: "nope"}).Resolve(); err == nil ||
		!strings.Contains(err.Error(), "manual-blocked") {
		t.Errorf("unknown scheme error %v does not list valid schemes", err)
	}
	// A scale that is not 0 or positive and at most MaxScale: each but the
	// last once reached the workloads' size clamp and simulated the smallest
	// input; the last asks for an input no host can hold.
	for _, sc := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, math.MaxInt64, MaxScale * 2} {
		if _, err := (JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: sc}).Resolve(); err == nil {
			t.Errorf("scale %g resolved", sc)
		}
	}
	// A sizing no machine can be built with: resolved, the first panicked the
	// worker that ran it and the second sized the prefetcher's unit table.
	for _, sp := range []JobSpec{
		{Bench: "HJ-2", Scheme: "manual", PPUMHz: 333},
		{Bench: "HJ-2", Scheme: "manual", PPUs: 2_000_000_000},
	} {
		if _, err := sp.Resolve(); err == nil {
			t.Errorf("%+v resolved", sp)
		}
	}
}

// TestSchemeRoundTrip pins ParseScheme/UnmarshalText against String.
func TestSchemeRoundTrip(t *testing.T) {
	for _, sch := range AllSchemes {
		got, ok := ParseScheme(sch.String())
		if !ok || got != sch {
			t.Errorf("ParseScheme(%q) = %v, %v", sch.String(), got, ok)
		}
		var u Scheme
		if err := u.UnmarshalText([]byte(sch.String())); err != nil || u != sch {
			t.Errorf("UnmarshalText(%q) = %v, %v", sch.String(), u, err)
		}
	}
	if _, ok := ParseScheme("bogus"); ok {
		t.Error("ParseScheme(bogus) succeeded")
	}
}

// TestJobSpecSlices pins the slices term of the content key: absent on
// serial jobs (so every pre-slicing key is unchanged), folded away for the
// equivalent spelling slices=1, present only on genuinely sliced jobs, and
// negative values rejected.
func TestJobSpecSlices(t *testing.T) {
	serial, err := JobSpec{Bench: "HJ-2", Scheme: "stride"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(serial.Canonical(), "slices") {
		t.Errorf("serial canonical %q mentions slices", serial.Canonical())
	}
	one, err := JobSpec{Bench: "HJ-2", Scheme: "stride", Slices: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if one.Key() != serial.Key() {
		t.Error("slices=1 keys differently from the serial default")
	}
	sliced, err := JobSpec{Bench: "HJ-2", Scheme: "stride", Slices: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sliced.Canonical(), ";slices=4") {
		t.Errorf("sliced canonical %q lacks the slices term", sliced.Canonical())
	}
	if sliced.Key() == serial.Key() {
		t.Error("sliced job shares the serial job's key")
	}
	if sliced.Options().Slices != 4 {
		t.Errorf("Options().Slices = %d, want 4", sliced.Options().Slices)
	}
	if _, err := (JobSpec{Bench: "HJ-2", Scheme: "stride", Slices: -1}).Resolve(); err == nil {
		t.Error("negative slices accepted")
	}
}

// FuzzJobSpec feeds arbitrary bytes down the path a POST /jobs body takes:
// json.Unmarshal, then Resolve. Whatever resolves is a job a worker will run,
// so it must render (Canonical, Key), become options a machine can be built
// from (ConfigFor — the two crashers in the corpus resolved and then panicked
// there), and be a fixed point of the fold: a spec written from the Job's own
// fields resolves to the same Key. The corpus in testdata/fuzz/FuzzJobSpec
// holds the bodies the serve and job tests and ppfload send.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		job, err := spec.Resolve()
		if err != nil {
			return
		}
		if job.Scale > MaxScale {
			t.Fatalf("%s resolved with scale %g, above MaxScale", job.Canonical(), job.Scale)
		}
		if _, err := ConfigFor(job.Options(), job.Scheme); err != nil {
			t.Fatalf("%s resolved, but no machine can be built for it: %v", job.Canonical(), err)
		}
		again := JobSpec{Bench: spec.Bench, Trace: spec.Trace, Scheme: job.Scheme.String(),
			Scale: job.Scale, PPUs: job.PPUs, PPUMHz: job.PPUMHz, Slices: job.Slices}
		if spec.Trace == "" {
			again.Bench = job.Bench.Name
		}
		back, err := again.Resolve()
		if err != nil || back.Key() != job.Key() {
			t.Fatalf("%s refolds to %s, %v", job.Canonical(), back.Canonical(), err)
		}
	})
}
