package harness

import (
	"testing"

	"eventpf/internal/workloads"
)

// TestConversionCoverage pins down which benchmarks the software-prefetch
// conversion pass handles: everything with a software-prefetch variant must
// convert every prefetch it contains (the paper's Algorithm 1 coverage).
func TestConversionCoverage(t *testing.T) {
	want := map[string]int{ // chains converted per benchmark
		"G500-CSR":  1,
		"G500-List": 1,
		"HJ-2":      2, // key-stream prefetch + hashed-bucket chain
		"HJ-8":      2,
		"RandAcc":   1,
		"IntSort":   2,
		"ConjGrad":  3, // cols, vals, and the indirect vector chain
	}
	for _, b := range workloads.All {
		if b.Name == "PageRank" {
			continue
		}
		if r := mustAt(t, runKey{b.Name, Converted, 0.02, plain}).res; r.Pass.Converted != want[b.Name] {
			t.Errorf("%s: %d chains converted (failed %d: %v), want %d",
				b.Name, r.Pass.Converted, r.Pass.Failed, r.Pass.Errors, want[b.Name])
		}
	}
}

// TestPragmaCoverage pins down the pragma pass: it finds indirect chains in
// straight-line loop bodies and skips control-dependent ones.
func TestPragmaCoverage(t *testing.T) {
	want := map[string]int{
		"G500-CSR":  2, // queue→rowptr[v] and queue→rowptr[v+1]
		"G500-List": 2, // queue→head[v] plus the swpf-free second chain
		"HJ-2":      1, // key→bucket; the matched-value load is conditional
		"HJ-8":      2, // key→bucket-head chain
		"PageRank":  2, // src→rank_old and dst→rank_new
		"RandAcc":   1, // state→table
		"IntSort":   1, // key→count
		"ConjGrad":  1, // cols→vector
	}
	for _, b := range workloads.All {
		r := mustAt(t, runKey{b.Name, Pragma, 0.02, plain}).res
		if r.Pass.Converted < 1 {
			t.Errorf("%s: pragma found no chains (errors: %v)", b.Name, r.Pass.Errors)
		}
		if w, ok := want[b.Name]; ok && r.Pass.Converted != w {
			t.Logf("%s: pragma found %d chains (reference expectation %d)",
				b.Name, r.Pass.Converted, w)
		}
	}
}
