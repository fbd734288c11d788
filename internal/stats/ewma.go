// Package stats holds the small shared statistics helpers used across the
// simulator and its serving layer: currently the integer EWMA that smooths
// job durations for ppfserve's 429 backpressure and smooths the adaptive
// controller's sensor and reward streams.
package stats

// EWMA is an integer exponentially-weighted moving average with smoothing
// factor 1/Div: each observation moves the value by (x - value) / Div,
// using Go's truncating integer division (which is what the serving layer's
// estimator always did — truncation, not floor, so negative deltas round
// toward zero).
//
// The first observation sets the value directly (warm-up), so the average
// is never dragged from an arbitrary zero start; before any observation
// Value is 0, and callers that can see an empty estimator must decide what
// a missing estimate means (ppfserve clamps its Retry-After to a floor; the
// adaptive policy measures every arm before it compares them).
//
// The zero value with Div 0 is not usable; construct with NewEWMA.
type EWMA struct {
	// Div is the inverse smoothing weight (α = 1/Div). Div 1 tracks the
	// last sample exactly.
	div int64
	v   int64
	n   int64
}

// NewEWMA returns an estimator with smoothing factor 1/div. div must be
// at least 1.
func NewEWMA(div int64) EWMA {
	if div < 1 {
		panic("stats: NewEWMA: div must be >= 1")
	}
	return EWMA{div: div}
}

// Observe folds one sample into the average. The first sample sets the
// value directly.
func (e *EWMA) Observe(x int64) {
	e.n++
	if e.n == 1 {
		e.v = x
		return
	}
	e.v += (x - e.v) / e.div
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() int64 { return e.v }
