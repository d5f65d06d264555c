package main

import (
	"math"
	"sort"

	"p2/internal/serve"
)

// minTail is how many samples must lie beyond a tail percentile before
// it is reported: a p95 over 40 samples is the second-largest value, not
// a tail estimate.
const minTail = 10

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of an ascending sample,
// the definition the daemon's /statz uses (serve.Percentile), so client-
// and server-side figures agree. An empty sample reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return serve.Percentile(sorted, p)
}

// tailPercentile is percentile for a tail: ok is false, and the value
// must not be reported, unless at least minTail samples rank beyond it.
func tailPercentile(sorted []float64, p float64) (v float64, ok bool) {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if len(sorted)-rank < minTail {
		return 0, false
	}
	return serve.Percentile(sorted, p), true
}

// median is the interpolated median of a sample (0 when empty), used for
// repeated set-up timings where there is no tail to respect.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean is the arithmetic mean of a sample (0 when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
