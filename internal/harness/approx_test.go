package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// TestApproxEngineGoldens pins the approximate engines byte-for-byte: the
// committed files were generated by the pre-plan drivers (RunTimeParallel /
// RunSampled), so any refactor of the run driver, the phase stream or the
// stitch must reproduce those results exactly for the same parameters.
// Regenerate with -update-golden only when an approximation is meant to move.
func TestApproxEngineGoldens(t *testing.T) {
	sample := system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}
	engines := []struct {
		name string
		opt  Options
	}{
		{"slices4", Options{Scale: goldenScale, Slices: 4}},
		{"sampled", Options{Scale: goldenScale, Sample: &sample}},
	}
	pairs := []struct {
		bench  string
		scheme Scheme
	}{
		{"HJ-2", Manual},
		{"RandAcc", Stride},
	}
	for _, p := range pairs {
		for _, e := range engines {
			p, e := p, e
			t.Run(p.bench+"/"+p.scheme.String()+"/"+e.name, func(t *testing.T) {
				t.Parallel()
				b, err := workloads.ByName(p.bench)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(b, p.scheme, e.opt)
				if err != nil {
					t.Fatal(err)
				}
				got := encode(t, res)
				path := filepath.Join("testdata", "approx_"+p.bench+"_"+p.scheme.String()+"_"+e.name+".json")
				if *updateGolden {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s under %s (%s): result bytes differ from %s (cycles %d)",
						p.bench, p.scheme, e.name, path, res.Cycles)
				}
			})
		}
	}
}
