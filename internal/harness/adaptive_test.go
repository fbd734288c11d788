package harness

import (
	"bytes"
	"testing"

	"eventpf/internal/workloads"
)

// TestAdaptiveDeterministic pins the adaptive controller's reproducibility
// contract: for a fixed config (seed included), two independent runs of the
// same job must produce byte-identical results, and the controller must have
// actually exercised its machinery (the initial sweep alone guarantees arm
// switches on any run longer than a handful of intervals).
func TestAdaptiveDeterministic(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Scale: 0.02}
	first, err := Run(b, Adaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(b, Adaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, first), encode(t, second)) {
		t.Errorf("two adaptive runs of the same job differ (%d vs %d cycles)",
			first.Cycles, second.Cycles)
	}
	if first.Adaptive == nil {
		t.Fatal("adaptive run reported no controller stats")
	}
	if first.Adaptive.Switches < 1 {
		t.Errorf("adaptive run never switched arms (stats: %+v)", *first.Adaptive)
	}
}
