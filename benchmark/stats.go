package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values when the
// count is even); 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs with
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so the
// spread this program prints is the spread the contract's driver computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1 // zero-based position among the sorted values
		switch {
		case pos <= 0:
			return s[0]
		case pos >= float64(n-1):
			return s[n-1]
		}
		i := int(math.Floor(pos))
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// tailPercentile applies the reporting rule for latency tails: the highest
// of p99, p95, p90 that still has at least ten samples beyond it. ok is false
// when even p90 has fewer (under 100 samples), and then no tail is reported.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90} {
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1 // nearest-rank
		if idx >= 0 && n-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
