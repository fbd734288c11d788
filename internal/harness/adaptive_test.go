package harness

import (
	"bytes"
	"testing"
)

// TestAdaptiveDeterministic pins the adaptive controller's reproducibility
// contract: for a fixed config (seed included), two independent runs of the
// same job must produce byte-identical results, and the controller must have
// actually exercised its machinery (the initial sweep alone guarantees arm
// switches on any run longer than a handful of intervals).
func TestAdaptiveDeterministic(t *testing.T) {
	k := runKey{"HJ-2", Adaptive, 0.02, plain}
	if !bytes.Equal(again(t, k), mustAt(t, k).enc) {
		t.Error("two adaptive runs of the same job differ")
	}
	if st := mustAt(t, k).res.Adaptive; st == nil || st.Switches < 1 {
		t.Errorf("adaptive run never switched arms (stats: %+v)", st)
	}
}
