package stats

import "testing"

// TestEWMAWarmup pins the warm-up contract: the first observation sets the
// value directly instead of averaging against the zero start.
func TestEWMAWarmup(t *testing.T) {
	e := NewEWMA(4)
	if got := e.Value(); got != 0 {
		t.Fatalf("zero-sample Value() = %d, want 0", got)
	}
	e.Observe(1000)
	if got := e.Value(); got != 1000 {
		t.Fatalf("first observation: Value() = %d, want 1000 (set directly)", got)
	}
}

// TestEWMADecay pins the exact integer arithmetic: each sample moves the
// value by (x - v) / div with truncating division — the serving layer's
// historical behaviour, which golden Retry-After expectations depend on.
func TestEWMADecay(t *testing.T) {
	e := NewEWMA(4)
	e.Observe(1000)
	e.Observe(2000) // 1000 + (2000-1000)/4 = 1250
	if got := e.Value(); got != 1250 {
		t.Fatalf("after 1000,2000: Value() = %d, want 1250", got)
	}
	e.Observe(2000) // 1250 + 750/4 = 1250 + 187 = 1437 (truncating)
	if got := e.Value(); got != 1437 {
		t.Fatalf("after 1000,2000,2000: Value() = %d, want 1437", got)
	}
	// Negative deltas truncate toward zero, not toward -inf.
	e = NewEWMA(4)
	e.Observe(1000)
	e.Observe(999) // 1000 + (-1)/4 = 1000, not 999
	if got := e.Value(); got != 1000 {
		t.Fatalf("small negative delta: Value() = %d, want 1000 (truncation toward zero)", got)
	}
}

// TestEWMAConverges checks the average approaches a steady input.
func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(4)
	e.Observe(0)
	for i := 0; i < 64; i++ {
		e.Observe(4000)
	}
	// Converges to just under the target (truncation loses < div per step).
	if got := e.Value(); got < 3990 || got > 4000 {
		t.Fatalf("after 64 steady samples: Value() = %d, want ~4000", got)
	}
}

// TestEWMAZeroSample covers what a caller sees before any sample arrives:
// Value is 0, and a zero first sample is a sample like any other.
func TestEWMAZeroSample(t *testing.T) {
	e := NewEWMA(2)
	if got := e.Value(); got != 0 {
		t.Fatalf("fresh estimator: Value() = %d, want 0", got)
	}
	e.Observe(0)
	e.Observe(300)
	if got := e.Value(); got != 150 {
		t.Fatalf("after samples 0 and 300: Value() = %d, want 150", got)
	}
}

// TestEWMADivOne tracks the last sample exactly.
func TestEWMADivOne(t *testing.T) {
	e := NewEWMA(1)
	for _, x := range []int64{10, 500, -3} {
		e.Observe(x)
		if got := e.Value(); got != x {
			t.Fatalf("div=1: Value() = %d, want %d", got, x)
		}
	}
}

func TestEWMABadDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEWMA(0) did not panic")
		}
	}()
	NewEWMA(0)
}
